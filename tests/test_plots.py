"""The figure writers refuse arrays of the wrong shape and unknown settings."""

import numpy as np
import pytest

from wavetrend.errors import DimensionMismatch
from wavetrend.plots import lacf_figure, spectrum_figure, trend_figure


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: trend_figure(np.ones(8), np.ones(7)), id="trend_lengths_differ"),
        pytest.param(lambda: trend_figure(np.ones((2, 4)), np.ones((2, 4))), id="trend_2d"),
        pytest.param(lambda: trend_figure(np.ones(8), np.ones(8), np.ones(7), np.ones(8)),
                     id="interval_length_differs"),
        pytest.param(lambda: trend_figure(np.ones(8), np.ones(8), ci_lo=np.zeros(8)),
                     id="interval_without_upper_bound"),
        pytest.param(lambda: trend_figure(np.ones(8), np.ones(8), ci_hi=np.ones(8)),
                     id="interval_without_lower_bound"),
        pytest.param(lambda: spectrum_figure(np.ones(8)), id="spectrum_1d"),
        pytest.param(lambda: spectrum_figure(np.ones((2, 8)), "log"), id="unknown_scaling"),
        pytest.param(lambda: lacf_figure(np.ones(8), [0]), id="lacv_1d"),
        pytest.param(lambda: lacf_figure(np.ones((8, 3)), []), id="no_times"),
    ],
)
def test_figure_guards(call):
    with pytest.raises(DimensionMismatch):
        call()

