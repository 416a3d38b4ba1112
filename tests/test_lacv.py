"""Local autocovariance from spectrum estimates."""

import tracemalloc
import warnings

import numpy as np
import pytest

from wavetrend.errors import DimensionMismatch, MatrixMismatch, WavetrendError
from wavetrend.filters import EXTREMAL_PHASE, wavelet_filter
from wavetrend.lacv import LacvEstimate, default_lag_max, lacv_from_spectrum
from wavetrend.spectrum import estimate_spectrum
from wavetrend.wavelets import autocorrelation_wavelets, support_length

HAAR = wavelet_filter(EXTREMAL_PHASE, 1)


def test_default_lag_max_natural_log():
    assert default_lag_max(512) == 62
    assert default_lag_max(1024) == 69


@pytest.mark.parametrize("n,want", [(2, 1), (16, 15), (35, 34), (36, 35), (37, 36), (40, 36)])
def test_default_lag_max_stops_at_the_last_lag(n, want):
    # floor(10 ln n) is below n, so a lag of the series, from n = 36 on
    assert default_lag_max(n) == want
    acw = autocorrelation_wavelets(HAAR, 1)
    assert lacv_from_spectrum(np.ones((1, n)), acw).lag_max == want


@pytest.mark.parametrize("shape", [(8,), (8, 9), (2, 3, 2)])
def test_estimate_refuses_lags_past_its_rows(shape):
    with pytest.raises(DimensionMismatch, match="lag_max < n"):
        LacvEstimate(np.ones(shape))
    assert LacvEstimate(np.ones((8, 8))).lag_max == 7


def test_haar_single_scale_values():
    acw = autocorrelation_wavelets(HAAR, 1)
    S = np.ones((1, 32))
    out = lacv_from_spectrum(S, acw, lag_max=5)
    assert np.allclose(out.lacv[:, 0], 1.0, atol=1e-10)
    assert np.allclose(out.lacv[:, 1], -0.5, atol=1e-10)
    assert np.allclose(out.lacv[:, 2:], 0.0, atol=1e-10)
    assert np.allclose(out.lacr[:, 0], 1.0, atol=1e-12)


def test_linearity_in_spectrum():
    acw = autocorrelation_wavelets(HAAR, 3)
    rng = np.random.default_rng(0)
    s1 = rng.uniform(0.1, 2.0, (3, 16))
    s2 = rng.uniform(0.1, 2.0, (3, 16))
    a = lacv_from_spectrum(s1, acw, lag_max=6).lacv
    b = lacv_from_spectrum(s2, acw, lag_max=6).lacv
    both = lacv_from_spectrum(s1 + s2, acw, lag_max=6).lacv
    assert np.allclose(both, a + b, atol=1e-12)


def test_support_cutoff():
    depth = 3
    acw = autocorrelation_wavelets(HAAR, depth)
    S = np.ones((depth, 32))  # lag_max must stay below the series length
    lag_max = 20
    out = lacv_from_spectrum(S, acw, lag_max=lag_max)
    cutoff = support_length(HAAR.length, depth)
    assert np.allclose(out.lacv[:, cutoff:], 0.0, atol=1e-12)
    assert np.any(out.lacv[:, cutoff - 1] != 0.0)


def test_zero_spectrum_nan_policy():
    acw = autocorrelation_wavelets(HAAR, 2)
    with pytest.warns(RuntimeWarning):
        out = lacv_from_spectrum(np.zeros((2, 8)), acw, lag_max=3)
    assert np.allclose(out.lacv, 0.0, atol=0)
    assert np.all(np.isnan(out.lacr))


def test_depth_and_lag_guards():
    acw = autocorrelation_wavelets(HAAR, 2)
    with pytest.raises(DimensionMismatch):
        lacv_from_spectrum(np.ones((3, 8)), acw)
    with pytest.raises(DimensionMismatch):
        lacv_from_spectrum(np.ones((2, 8)), acw, lag_max=-1)


def test_estimate_needs_its_own_filter():
    # Haar wavelets on an EP4 estimate would move the lacv silently
    est = estimate_spectrum(np.random.default_rng(21).standard_normal(256), levels=4)
    with pytest.raises(MatrixMismatch, match="extremal_phase:1"):
        lacv_from_spectrum(est, autocorrelation_wavelets(HAAR, 4), lag_max=5)
    # a plain matrix carries no filter and is not checked
    haar = lacv_from_spectrum(est.S, autocorrelation_wavelets(HAAR, 4), lag_max=5)
    ep4 = lacv_from_spectrum(est, autocorrelation_wavelets(est.filter, 4), lag_max=5)
    assert haar.lacv.shape == ep4.lacv.shape


def test_full_pipeline_variance_level():
    reps, n = 100, 512
    rng = np.random.default_rng(77)
    acw = autocorrelation_wavelets(wavelet_filter(EXTREMAL_PHASE, 4), 6)
    avg = []
    for _ in range(reps):
        est = estimate_spectrum(rng.standard_normal(n))
        avg.append(lacv_from_spectrum(est, acw, lag_max=5).lacv[:, 0].mean())
    assert 0.8 < np.mean(avg) < 1.2


def test_lacr_matches_eager_formula():
    # rows with zero and negative variance are NaN, the rest lacv over its
    # lag-0 column, exactly as the autocorrelation was stored before
    acw = autocorrelation_wavelets(HAAR, 3)
    S = np.random.default_rng(5).uniform(0.1, 2.0, (3, 16))
    S[:, 4] = 0.0
    S[:, 9] = -1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = lacv_from_spectrum(S, acw, lag_max=6)
    assert [w.category for w in caught] == [RuntimeWarning]
    var = out.lacv[:, :1]
    eager = np.divide(out.lacv, var, out=np.full_like(out.lacv, np.nan), where=var > 0)
    assert np.array_equal(out.lacr, eager, equal_nan=True)
    assert np.flatnonzero(np.isnan(out.lacr).all(axis=1)).tolist() == [4, 9]
    assert not np.isnan(np.delete(out.lacr, [4, 9], axis=0)).any()


def test_lag_max_is_an_int():
    out = lacv_from_spectrum(np.ones((2, 8)), autocorrelation_wavelets(HAAR, 2),
                             lag_max=np.int64(3))
    assert type(out.lag_max) is int and out.lag_max == 3
    assert out.lacv.shape == (8, 4)


def test_lacv_peak_memory_is_one_array():
    # long_lib's shape: only lacv itself may be held, not a second (n, lags) array
    acw = autocorrelation_wavelets(wavelet_filter(EXTREMAL_PHASE, 4), 11)
    S = np.random.default_rng(3).uniform(0.5, 1.5, (11, 65536))
    tracemalloc.start()
    try:
        out = lacv_from_spectrum(S, acw, lag_max=110)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.lacv.shape == (65536, 111)
    assert peak < 1.2 * out.lacv.nbytes


def test_estimate_derives_its_own_wavelets():
    est = estimate_spectrum(np.random.default_rng(4).standard_normal(256), filter_number=6)
    given = lacv_from_spectrum(est, autocorrelation_wavelets(est.filter, est.levels))
    assert lacv_from_spectrum(est).lacv.tobytes() == given.lacv.tobytes()


def test_plain_matrix_needs_wavelets():
    with pytest.raises(WavetrendError):
        lacv_from_spectrum(np.ones((2, 8)))
    with pytest.raises(DimensionMismatch):
        lacv_from_spectrum(np.ones(8), autocorrelation_wavelets(HAAR, 2))
