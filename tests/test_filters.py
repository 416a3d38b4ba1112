"""Filter table sanity: orthonormality, mirror relation, known values."""

import re

import numpy as np
import pytest

from wavetrend.errors import UnsupportedFilter
from wavetrend.filters import (
    EXTREMAL_PHASE,
    LEAST_ASYMMETRIC,
    canonical_family,
    wavelet_filter,
)

ALL_FILTERS = [(EXTREMAL_PHASE, k) for k in range(1, 11)] + [
    (LEAST_ASYMMETRIC, k) for k in range(4, 11)
]


@pytest.mark.parametrize("family,number", ALL_FILTERS)
def test_lowpass_orthonormal(family, number):
    h = wavelet_filter(family, number).lowpass
    assert h.size == 2 * number
    assert np.isclose(h.sum(), np.sqrt(2.0), atol=1e-12)
    assert np.isclose(h @ h, 1.0, atol=1e-12)
    for m in range(1, number):
        assert abs(h[2 * m :] @ h[: h.size - 2 * m]) < 1e-12


@pytest.mark.parametrize("family,number", ALL_FILTERS)
def test_highpass_is_quadrature_mirror(family, number):
    filt = wavelet_filter(family, number)
    h, g = filt.lowpass, filt.highpass
    signs = (-1.0) ** np.arange(h.size)
    assert np.allclose(g, signs * h[::-1], atol=1e-15)
    assert abs(g.sum()) < 1e-12


@pytest.mark.parametrize("family,number", ALL_FILTERS)
def test_vanishing_moments(family, number):
    g = wavelet_filter(family, number).highpass
    k = np.arange(g.size, dtype=np.float64)
    for m in range(number):
        assert abs((k**m) @ g) < 1e-7 * max(1.0, g.size**m)


def test_haar_values_exact():
    filt = wavelet_filter(EXTREMAL_PHASE, 1)
    assert np.allclose(filt.lowpass, [2**-0.5, 2**-0.5], atol=1e-15)


def test_family_aliases_resolve():
    assert canonical_family("DaubExPhase") == EXTREMAL_PHASE
    assert canonical_family("DaubLeAsymm") == LEAST_ASYMMETRIC
    assert canonical_family("least-asymmetric") == LEAST_ASYMMETRIC
    assert canonical_family("extremal_phase") == EXTREMAL_PHASE
    assert canonical_family("Least Asymmetric") == LEAST_ASYMMETRIC
    assert canonical_family("daub-ex-phase") == EXTREMAL_PHASE
    assert canonical_family("LA") == LEAST_ASYMMETRIC
    assert wavelet_filter("DaubExPhase", 4).label == "extremal_phase:4"
    with pytest.raises(UnsupportedFilter):
        canonical_family("haar")


def test_supported_ranges():
    for family, orders in [(EXTREMAL_PHASE, range(1, 11)), (LEAST_ASYMMETRIC, range(4, 11))]:
        assert [wavelet_filter(family, k).number for k in orders] == list(orders)
        for k in (orders[0] - 1, orders[-1] + 1):
            with pytest.raises(UnsupportedFilter, match=re.escape(str(list(orders)))):
                wavelet_filter(family, k)
    with pytest.raises(UnsupportedFilter):
        wavelet_filter(EXTREMAL_PHASE, 11)
    with pytest.raises(UnsupportedFilter):
        wavelet_filter(LEAST_ASYMMETRIC, 3)
    with pytest.raises(UnsupportedFilter):
        wavelet_filter("coiflet", 2)
