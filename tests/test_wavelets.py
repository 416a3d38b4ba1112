"""Discrete wavelets, autocorrelation wavelets, and correction matrices.

The matrix checks go through an independent brute-force oracle that works
directly on the raw psi vectors with explicit double sums, so an indexing
mistake in the package cannot hide in its own overlap helper.
"""

import numpy as np
import pytest

from wavetrend.errors import DimensionMismatch, InvalidDiffSpec, SingularMatrix
from wavetrend.filters import EXTREMAL_PHASE, LEAST_ASYMMETRIC, wavelet_filter
from wavetrend.wavelets import (
    a_matrix,
    autocorrelation_wavelets,
    cross_a_matrix,
    d_matrix,
    difference_series,
    discrete_wavelets,
    lagged_a_matrix,
    support_length,
    _invert,
)

HAAR = wavelet_filter(EXTREMAL_PHASE, 1)


def brute_autocorrelation(psi: np.ndarray, tau: int) -> float:
    """sum_t psi(t) psi(t + tau) by explicit loop."""
    total = 0.0
    for t in range(psi.size):
        if 0 <= t + tau < psi.size:
            total += psi[t] * psi[t + tau]
    return total


def brute_a_entry(psi_j: np.ndarray, psi_l: np.ndarray, lag: int) -> float:
    """sum_tau Psi_j(tau) Psi_l(tau - lag) with Psi built by brute force."""
    rj, rl = psi_j.size - 1, psi_l.size - 1
    total = 0.0
    for tau in range(-rj, rj + 1):
        total += brute_autocorrelation(psi_j, tau) * brute_autocorrelation(
            psi_l, tau - lag
        )
    return total


def brute_a(filt, depth: int, lag: int = 0) -> np.ndarray:
    dw = discrete_wavelets(filt, depth)
    out = np.empty((depth, depth))
    for j in range(1, depth + 1):
        for l in range(1, depth + 1):
            out[j - 1, l - 1] = brute_a_entry(dw[j - 1], dw[l - 1], lag)
    return out


def test_support_lengths():
    dw = discrete_wavelets(wavelet_filter(EXTREMAL_PHASE, 4), 5)
    for j in range(1, 6):
        expected = (2**j - 1) * (8 - 1) + 1
        assert dw[j - 1].size == expected == support_length(8, j)


def test_haar_psi_and_acw_values():
    dw = discrete_wavelets(HAAR, 3)
    assert np.allclose(np.abs(dw[0]), [2**-0.5, 2**-0.5], atol=1e-15)
    acw = autocorrelation_wavelets(HAAR, 3)
    assert np.allclose(acw.values[0], [-0.5, 1.0, -0.5], atol=1e-15)
    for j in (1, 2, 3):
        assert acw.window(3, 0)[j - 1, 0] == pytest.approx(1.0, abs=1e-12)
        row = acw.values[j - 1]
        assert np.allclose(row, row[::-1], atol=1e-14)


@pytest.mark.parametrize(
    "family,number",
    [(EXTREMAL_PHASE, 1), (EXTREMAL_PHASE, 4), (EXTREMAL_PHASE, 10), (LEAST_ASYMMETRIC, 8)],
)
def test_acw_cascade_matches_correlated_psi(family, number):
    filt = wavelet_filter(family, number)
    dw = discrete_wavelets(filt, 6)
    acw = autocorrelation_wavelets(filt, 6)
    for j in range(1, 7):
        want = np.correlate(dw[j - 1], dw[j - 1], "full")
        assert acw.values[j - 1].size == want.size
        assert np.allclose(acw.values[j - 1], want, rtol=0, atol=1e-13)


def test_acw_window_crops_and_pads():
    acw = autocorrelation_wavelets(HAAR, 2)  # radii 1 and 3
    wide = acw.window(2, 4)
    assert wide.shape == (2, 9)
    assert np.array_equal(wide[0, 3:6], acw.values[0]) and not wide[0, :3].any()
    assert np.array_equal(wide[1, 1:8], acw.values[1])
    assert np.array_equal(acw.window(2, 1)[1], acw.values[1][2:5])


def test_lagged_a_matrix_over_all_lags():
    # Haar depth 2: the window has 7 columns, so lags 7 and up give zeros
    acw = autocorrelation_wavelets(HAAR, 2)
    for lag in range(9):
        got = lagged_a_matrix(acw, 2, lag)
        assert np.allclose(got, brute_a(HAAR, 2, lag=lag), atol=1e-12)
        assert np.array_equal(lagged_a_matrix(acw, 2, -lag), got)
    assert not lagged_a_matrix(acw, 2, 7).any()


def test_haar_a_matrix_frozen_values():
    acw = autocorrelation_wavelets(HAAR, 2)
    A = a_matrix(acw, 2).matrix
    assert np.allclose(A, [[1.5, 0.75], [0.75, 1.75]], atol=1e-12)
    assert np.allclose(A, brute_a(HAAR, 2), atol=1e-12)


def test_haar_lagged_and_difference_values():
    acw = autocorrelation_wavelets(HAAR, 2)
    a1 = lagged_a_matrix(acw, 2, 1)
    assert a1[0, 0] == pytest.approx(-1.0, abs=1e-12)
    d1 = d_matrix(acw, 2, lag=1, order=1).matrix
    assert d1[0, 0] == pytest.approx(2.5, abs=1e-12)
    assert np.allclose(a1, brute_a(HAAR, 2, lag=1), atol=1e-12)


def test_haar_second_difference_from_brute_force():
    acw = autocorrelation_wavelets(HAAR, 2)
    a2_11 = brute_a(HAAR, 2, lag=2)[0, 0]
    d2 = d_matrix(acw, 2, lag=1, order=2).matrix
    assert d2[0, 0] == pytest.approx(1.5 - (4.0 / 3.0) * (-1.0) + a2_11 / 3.0, abs=1e-12)


@pytest.mark.parametrize(
    "family,number",
    [(EXTREMAL_PHASE, 4), (LEAST_ASYMMETRIC, 8)],
)
def test_oracle_agreement_depth_four(family, number):
    filt = wavelet_filter(family, number)
    acw = autocorrelation_wavelets(filt, 4)
    assert np.allclose(a_matrix(acw, 4).matrix, brute_a(filt, 4), atol=1e-10)
    assert np.allclose(lagged_a_matrix(acw, 4, 1), brute_a(filt, 4, lag=1), atol=1e-10)


def test_inverse_roundtrip():
    filt = wavelet_filter(EXTREMAL_PHASE, 4)
    acw = autocorrelation_wavelets(filt, 5)
    corr = a_matrix(acw, 5)
    assert np.allclose(corr.inverse @ corr.matrix, np.eye(5), atol=1e-10)
    assert corr.cond < 1e6


def test_cross_matrix_reduces_to_a_for_same_filter():
    acw = autocorrelation_wavelets(HAAR, 3)
    cross = cross_a_matrix(acw, acw, 3)
    assert np.allclose(cross, a_matrix(acw, 3).matrix, atol=1e-12)


def test_cross_matrix_rows_are_analysis_scales():
    gen = autocorrelation_wavelets(HAAR, 3)
    ana = autocorrelation_wavelets(wavelet_filter(LEAST_ASYMMETRIC, 6), 3)
    cross = cross_a_matrix(gen, ana, 3)
    dw_g = discrete_wavelets(HAAR, 3)
    dw_a = discrete_wavelets(wavelet_filter(LEAST_ASYMMETRIC, 6), 3)
    expected = brute_a_entry(dw_a[1], dw_g[0], 0)
    assert cross[1, 0] == pytest.approx(expected, abs=1e-12)


def test_difference_normalization():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    d1 = difference_series(x, lag=1, order=1)
    assert np.allclose(d1, np.array([1.0, 2.0, 4.0]) / np.sqrt(2.0), atol=1e-15)
    d2 = difference_series(x, lag=1, order=2)
    assert np.allclose(d2, np.array([1.0, 2.0]) / np.sqrt(6.0), atol=1e-15)
    lagged = difference_series(x, lag=2, order=1)
    assert np.allclose(lagged, np.array([3.0, 6.0]) / np.sqrt(2.0), atol=1e-15)


def test_difference_white_noise_variance_preserved():
    # the 1/sqrt(2) and 1/sqrt(6) factors make E of the squared differenced
    # series equal the original variance for white noise
    rng = np.random.default_rng(11)
    x = rng.standard_normal(200_000)
    for order in (1, 2):
        d = difference_series(x, lag=1, order=order)
        assert np.var(d) == pytest.approx(1.0, abs=0.02)


def test_difference_rejects_bad_specs():
    x = np.arange(10.0)
    with pytest.raises(InvalidDiffSpec):
        difference_series(x, lag=0, order=1)
    with pytest.raises(InvalidDiffSpec):
        difference_series(x, lag=1, order=3)
    with pytest.raises(InvalidDiffSpec):
        difference_series(x, lag=2, order=2)
    acw = autocorrelation_wavelets(HAAR, 2)
    for lag, order in ((2, 2), (0, 1), (1, 0), (1, 3)):
        with pytest.raises(InvalidDiffSpec):
            d_matrix(acw, 2, lag=lag, order=order)


def test_singular_operator_is_refused():
    # no public input reaches condition 1e12 at a unit-test size, so a rank-1 matrix
    with pytest.raises(SingularMatrix, match="depth 2"):
        _invert(np.ones((2, 2)), "direct", 2)


def test_difference_series_needs_one_series():
    with pytest.raises(DimensionMismatch):
        difference_series(np.ones((2, 8)))
