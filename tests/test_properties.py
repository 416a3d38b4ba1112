"""Invariants checked over randomised inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wavetrend.filters import (
    EXTREMAL_PHASE,
    LEAST_ASYMMETRIC,
    wavelet_filter,
)
from wavetrend.spectrum import wavelet_periodogram
from wavetrend.transforms import (
    SYMMETRIC_TRIPLE,
    TREND_REFLECT,
    dwt_forward,
    dwt_inverse,
    extend_rows,
    extension_descriptor,
)
from wavetrend.trend import HARD, SOFT, threshold
from wavetrend.wavelets import a_matrix, autocorrelation_wavelets, difference_series

ALL_FILTERS = [(EXTREMAL_PHASE, k) for k in range(1, 11)] + [
    (LEAST_ASYMMETRIC, k) for k in range(4, 11)
]

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def series(min_size=8, max_size=128):
    return arrays(
        np.float64, st.integers(min_size, max_size), elements=finite
    )


@given(x=finite, y=finite, lam=st.floats(min_value=0.0, max_value=50.0))
def test_soft_threshold_is_a_contraction(x, y, lam):
    assert abs(threshold(x, lam, SOFT) - threshold(y, lam, SOFT)) <= abs(x - y) + 1e-12


@given(x=finite, lam=st.floats(min_value=0.0, max_value=50.0))
def test_soft_never_exceeds_hard(x, lam):
    assert abs(threshold(x, lam, SOFT)) <= abs(threshold(x, lam, HARD)) + 1e-15


@given(c=finite, n=st.integers(16, 64))
def test_first_difference_kills_constants(c, n):
    out = difference_series(np.full(n, c), 1, 1)
    assert np.all(out == 0.0)


@given(a=finite, b=finite, lag=st.integers(1, 2), n=st.integers(16, 64))
def test_differences_kill_low_order_polynomials(a, b, lag, n):
    t = np.arange(n, dtype=np.float64)
    line = a + b * t
    scale = 1.0 + abs(a) + abs(b) * n
    if lag == 1:
        out = difference_series(line, 1, 2)
        assert np.max(np.abs(out)) <= 1e-9 * scale
    out = difference_series(np.full(n, a), lag, 1)
    assert np.max(np.abs(out)) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(
    x=arrays(np.float64, st.sampled_from([16, 32, 64, 128]), elements=finite),
    choice=st.sampled_from(ALL_FILTERS),
    data=st.data(),
)
def test_dwt_reconstructs_any_dyadic_series(x, choice, data):
    filt = wavelet_filter(*choice)
    levels = data.draw(st.integers(1, int(np.log2(x.size))))
    pyr = dwt_forward(x, filt, levels)
    back = dwt_inverse(pyr)
    assert np.allclose(back, x, atol=1e-8 * (1.0 + np.max(np.abs(x))))


@settings(max_examples=40, deadline=None)
@given(x=series(2, 100), policy=st.sampled_from([TREND_REFLECT, SYMMETRIC_TRIPLE]))
def test_extension_window_round_trips(x, policy):
    desc = extension_descriptor(x.size, policy)
    ext = extend_rows(x, desc)
    assert np.array_equal(ext[desc.window()], x)
    assert ext.size == desc.extended_length


@settings(max_examples=20, deadline=None)
@given(
    x=arrays(np.float64, st.just(64), elements=finite),
    c=finite,
    boundary=st.booleans(),
)
def test_periodogram_ignores_level_shifts(x, c, boundary):
    filt = wavelet_filter(EXTREMAL_PHASE, 4)
    base = wavelet_periodogram(x, filt, 3, boundary=boundary).raw
    shifted = wavelet_periodogram(x + c, filt, 3, boundary=boundary).raw
    tol = 1e-9 * (1.0 + c * c + np.max(np.abs(x)) ** 2)
    assert np.allclose(shifted, base, atol=tol)


@settings(max_examples=15, deadline=None)
@given(choice=st.sampled_from(ALL_FILTERS), depth=st.integers(1, 4))
def test_a_matrix_symmetric_positive_definite(choice, depth):
    filt = wavelet_filter(*choice)
    A = a_matrix(autocorrelation_wavelets(filt, depth), depth).matrix
    assert np.allclose(A, A.T, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(A)) > 0.0
