"""Every integer argument of the public entry points is checked where it enters.

One table: for each entry point and argument, a call taking the argument's
value, a valid value, the error class a bad value raises and the values
just outside its range.  A bool, a float, a string and each out-of-range
value must raise that class (a WavetrendError); the valid value passed as
a numpy integer must be accepted.  The significance level is the one real
argument, with the same bad values and a numpy float as the valid one.
"""

import numpy as np
import pytest

from wavetrend.errors import (
    DimensionMismatch,
    InvalidBinwidth,
    InvalidDiffSpec,
    ScaleTooDeep,
    SeriesTooShort,
    TooFewReps,
    UnsupportedFilter,
    WavetrendError,
)
from wavetrend.lacv import lacv_from_spectrum
from wavetrend.plots import lacf_figure
from wavetrend.simulate import sample_spec, sample_trend, tlsw_sim
from wavetrend.spectrum import estimate_spectrum, wavelet_periodogram
from wavetrend.transforms import (
    DECIMATED,
    TREND_REFLECT,
    dwt_forward,
    extension_descriptor,
    ndwt_forward,
)
from wavetrend.trend import (
    EstimatorConfig,
    analytic_ci,
    bootstrap_ci,
    estimate_trend,
    threshold,
    variance_matrix,
)
from wavetrend.wavelets import autocorrelation_wavelets, difference_series, lagged_a_matrix

N = 128
X = np.random.default_rng(21).standard_normal(N)
SPECTRUM = estimate_spectrum(X, levels=3)
FIT = estimate_trend(X, EstimatorConfig(transform=DECIMATED, levels=3))
ACW = autocorrelation_wavelets(SPECTRUM.filter, SPECTRUM.levels)
LACV = lacv_from_spectrum(SPECTRUM, ACW, lag_max=10)

# (entry point and argument, call with the value, valid value, error, out-of-range values)
INTEGERS = [
    ("EstimatorConfig.levels", lambda v: EstimatorConfig(levels=v), 3, ScaleTooDeep, [0]),
    ("EstimatorConfig.filter_number", lambda v: EstimatorConfig(filter_number=v), 4,
     UnsupportedFilter, [0, 11]),
    ("estimate_spectrum.levels", lambda v: estimate_spectrum(X, levels=v), 3, ScaleTooDeep,
     [0, 8]),
    ("estimate_spectrum.filter_number", lambda v: estimate_spectrum(X, filter_number=v), 4,
     UnsupportedFilter, [0, 11]),
    ("estimate_spectrum.binwidth", lambda v: estimate_spectrum(X, binwidth=v), 15,
     InvalidBinwidth, [1, N + 1]),
    # order 2 is defined at lag 1 only, so lag 2 is past the top
    ("estimate_spectrum.diff_lag", lambda v: estimate_spectrum(X, diff=(v, 2)), 1,
     InvalidDiffSpec, [0, 2]),
    ("estimate_spectrum.diff_order", lambda v: estimate_spectrum(X, diff=(1, v)), 1,
     InvalidDiffSpec, [0, 3]),
    ("lacv_from_spectrum.lag_max", lambda v: lacv_from_spectrum(SPECTRUM, ACW, lag_max=v), 10,
     DimensionMismatch, [-1, N]),
    ("bootstrap_ci.reps", lambda v: bootstrap_ci(FIT, SPECTRUM, reps=v), 40, TooFewReps, [39]),
    ("bootstrap_ci.seed", lambda v: bootstrap_ci(FIT, SPECTRUM, reps=40, seed=v), 3,
     WavetrendError, [-1]),
    ("tlsw_sim.n", lambda v: tlsw_sim(n=v), 8, SeriesTooShort, [7]),
    ("tlsw_sim.seed", lambda v: tlsw_sim(spec={1: 1.0}, n=16, seed=v), 3, WavetrendError, [-1]),
    ("sample_spec.scale", lambda v: sample_spec({v: 1.0}, 16), 1, DimensionMismatch, [0, 5]),
    ("lacf_figure.times", lambda v: lacf_figure(LACV.lacv, [v]), 5, DimensionMismatch, [-1, N]),
    ("sample_trend.n", lambda v: sample_trend(None, v), 8, SeriesTooShort, [0]),
    ("ndwt_forward.levels", lambda v: ndwt_forward(X, SPECTRUM.filter, v), 3, ScaleTooDeep,
     [0, 8]),
    ("dwt_forward.levels", lambda v: dwt_forward(X, SPECTRUM.filter, v), 3, ScaleTooDeep,
     [0, 8]),
    ("extension_descriptor.n", lambda v: extension_descriptor(v, TREND_REFLECT), 16,
     SeriesTooShort, [0]),
    # Psi is even, so a lag of either sign is valid and there is no range to leave
    ("lagged_a_matrix.lag", lambda v: lagged_a_matrix(ACW, 2, v), -1, DimensionMismatch, []),
    ("variance_matrix.levels", lambda v: variance_matrix(SPECTRUM, SPECTRUM.filter, v), 3,
     ScaleTooDeep, [0]),
]

REALS = [
    ("bootstrap_ci.alpha", lambda v: bootstrap_ci(FIT, SPECTRUM, reps=40, alpha=v), 0.05),
    ("analytic_ci.alpha", lambda v: analytic_ci(FIT, LACV, alpha=v), 0.05),
]

BAD = [
    pytest.param(call, error, value, id=f"{name}-{value!r}")
    for name, call, _, error, outside in INTEGERS
    for value in [True, 2.5, "a", *outside]
] + [
    pytest.param(call, WavetrendError, value, id=f"{name}-{value!r}")
    for name, call, _ in REALS
    for value in [True, 2.5, "a", 0.0, 1.0]
]


@pytest.mark.parametrize("call,error,value", BAD)
def test_bad_argument_is_refused(call, error, value):
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize(
    "call,value",
    [pytest.param(call, np.int64(good), id=name) for name, call, good, *_ in INTEGERS]
    + [pytest.param(call, np.float64(good), id=name) for name, call, good in REALS],
)
def test_numpy_scalar_is_accepted(call, value):
    call(value)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: estimate_spectrum(X, diff=(1,)), id="diff_one_tuple"),
        pytest.param(lambda: estimate_spectrum(X, diff=1), id="diff_not_a_pair"),
        pytest.param(lambda: estimate_spectrum(["a"] * 512), id="non_numeric_series"),
        pytest.param(lambda: tlsw_sim(trend=5.0, spec={1: 1.0}), id="scalar_trend_without_n"),
        pytest.param(lambda: tlsw_sim(trend="abcdefgh"), id="string_trend_without_n"),
        pytest.param(lambda: sample_trend("abc", 3), id="string_trend"),
        pytest.param(lambda: sample_spec({1: "abc"}, 16), id="string_spectrum_row"),
        pytest.param(lambda: extension_descriptor(16, "reflect"), id="unknown_extension_policy"),
        pytest.param(lambda: estimate_spectrum(X, boundary="no"), id="string_spectrum_boundary"),
        pytest.param(lambda: estimate_spectrum(X, boundary=1), id="integer_spectrum_boundary"),
        pytest.param(lambda: wavelet_periodogram(X, SPECTRUM.filter, 3, boundary="no"),
                     id="string_periodogram_boundary"),
        pytest.param(lambda: EstimatorConfig(boundary="no"), id="string_trend_boundary"),
        pytest.param(lambda: EstimatorConfig(boundary=None), id="none_trend_boundary"),
        pytest.param(lambda: wavelet_periodogram(X, "ep4", 3), id="filter_name_for_filter"),
        pytest.param(lambda: lacv_from_spectrum([["a"]], ACW), id="string_spectrum_matrix"),
        pytest.param(lambda: lacv_from_spectrum([[1, 2], [3]], ACW), id="ragged_spectrum_matrix"),
        pytest.param(lambda: ndwt_forward(["a"] * 8, SPECTRUM.filter, 1),
                     id="string_transform_input"),
        pytest.param(lambda: difference_series(["a"] * 8), id="string_differenced_series"),
        pytest.param(lambda: threshold([1.0], "a"), id="string_threshold"),
    ],
)
def test_malformed_input_is_refused(call):
    with pytest.raises(WavetrendError):
        call()


def test_filter_name_is_an_unsupported_filter():
    with pytest.raises(UnsupportedFilter):
        wavelet_periodogram(X, "ep4", 3)


def test_numpy_bool_flags_are_stored_as_bools():
    assert EstimatorConfig(boundary=np.False_).boundary is False
    est = estimate_spectrum(X, levels=3, boundary=np.True_)
    assert est.periodogram.boundary is True


def test_checked_integers_are_stored_as_ints():
    config = EstimatorConfig(levels=np.int64(3), filter_number=np.int64(6))
    assert type(config.levels) is int and type(config.filter_number) is int
    est = estimate_spectrum(X, levels=np.int64(3), diff=(np.int64(1), np.int64(1)))
    assert type(est.levels) is int and est.periodogram.diff == (1, 1)
    assert all(type(v) is int for v in est.periodogram.diff)
