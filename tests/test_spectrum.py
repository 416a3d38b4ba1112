"""Periodogram, smoothing, correction, and the assembled estimator."""

import math

import numpy as np
import pytest

from wavetrend import spectrum
from wavetrend.errors import InvalidBinwidth, InvalidDiffSpec, SeriesTooShort, WavetrendError
from wavetrend.filters import EXTREMAL_PHASE, LEAST_ASYMMETRIC, wavelet_filter
from wavetrend.scenarios import scenario
from wavetrend.simulate import max_scales
from wavetrend.spectrum import (
    MEAN,
    Periodogram,
    MEDIAN,
    NONE,
    SmootherConfig,
    correct_periodogram,
    default_binwidth,
    default_levels,
    estimate_spectrum,
    smooth_periodogram,
    wavelet_periodogram,
)
from wavetrend.transforms import TREND_REFLECT, extend_rows, extension_descriptor, ndwt_forward
from wavetrend.wavelets import a_matrix, autocorrelation_wavelets, d_matrix, difference_series

from test_transforms import filter_bank_calls

EP4 = wavelet_filter(EXTREMAL_PHASE, 4)
HAAR = wavelet_filter(EXTREMAL_PHASE, 1)


def test_defaults():
    assert default_levels(512) == 6
    assert default_levels(1024) == 7
    assert max_scales(512) == 9
    binwidth, clamped = default_binwidth(512)
    assert binwidth == 135 and not clamped
    binwidth, clamped = default_binwidth(20)
    assert binwidth % 2 == 1 and binwidth <= 10 and clamped


def test_unsmoothed_spectrum_reports_no_clamp():
    # a length-20 series clamps the default binwidth, but only a smoother uses it
    x = np.random.default_rng(20).standard_normal(20)
    assert estimate_spectrum(x).binwidth_clamped
    est = estimate_spectrum(x, smoother=NONE)
    assert not est.binwidth_clamped
    assert est.periodogram.smoother == SmootherConfig(NONE, None)
    assert np.array_equal(est.periodogram.smoothed, est.periodogram.raw)


def test_zero_series_zero_raw():
    raw = wavelet_periodogram(np.zeros(64), EP4, 3).raw
    assert raw.shape == (3, 64)
    assert np.all(raw == 0.0)


@pytest.mark.filterwarnings("error")
def test_huge_series_raises_instead_of_nonfinite_spectrum():
    # squares overflow from about 1e154; at 1e153 the periodogram is finite
    # but the smoothers' window sums overflow.  No overflow warning comes
    # before the error.
    x = np.random.default_rng(5).standard_normal(256)
    with pytest.raises(WavetrendError, match="rescale the series"):
        wavelet_periodogram(x * 1e160, EP4, 5)
    with pytest.raises(WavetrendError, match="rescale the series"):
        estimate_spectrum(x * 1e160, diff=(1, 1))
    assert np.isfinite(wavelet_periodogram(x * 1e153, EP4, 5).raw).all()
    for smoother in (MEAN, "epan"):
        with pytest.raises(WavetrendError, match="rescale the series"):
            estimate_spectrum(x * 1e153, smoother=smoother)
        assert np.isfinite(estimate_spectrum(x * 1e150, smoother=smoother).S).all()


def test_linear_trend_annihilated():
    # two vanishing moments kill a linear trend in the interior columns
    rng = np.random.default_rng(7)
    x = rng.standard_normal(256)
    trend = 0.5 + 3.0 * np.arange(256) / 256
    a = wavelet_periodogram(x, EP4, 4).raw
    b = wavelet_periodogram(x + trend, EP4, 4).raw
    interior = slice(64, 192)
    denom = np.maximum(np.abs(a[:, interior]), 1e-12)
    assert np.max(np.abs(a[:, interior] - b[:, interior]) / denom) < 1e-6


def test_smoother_validation():
    pgram = wavelet_periodogram(np.ones(32), EP4, 2)
    with pytest.raises(InvalidBinwidth):
        smooth_periodogram(pgram, SmootherConfig(kind=MEAN, binwidth=4))
    with pytest.raises(InvalidBinwidth):
        SmootherConfig(kind="boxcar", binwidth=5)


def test_running_smoother_needs_a_binwidth():
    # SmootherConfig carries no default binwidth; estimate_spectrum picks one
    pgram = wavelet_periodogram(np.ones(32), EP4, 2)
    assert SmootherConfig(MEAN).binwidth is None
    with pytest.raises(InvalidBinwidth, match="got None"):
        smooth_periodogram(pgram, SmootherConfig(MEAN))


def test_mean_smoother_constant_row():
    pgram = Periodogram(raw=np.full((2, 64), 3.25), filter=EP4)
    for kind in (MEAN, "epan"):
        out = smooth_periodogram(pgram, SmootherConfig(kind=kind, binwidth=9))
        assert np.allclose(out.smoothed, 3.25, atol=1e-12)


def test_mean_smoother_ramp_centre():
    row = np.arange(11.0)[None, :]
    out = smooth_periodogram(Periodogram(raw=row, filter=EP4), SmootherConfig(MEAN, 3))
    assert out.smoothed[0, 5] == pytest.approx(5.0, abs=1e-12)


def test_median_smoother_calibration():
    rng = np.random.default_rng(21)
    means = []
    for _ in range(50):
        row = rng.standard_normal(1024)[None, :] ** 2
        out = smooth_periodogram(Periodogram(raw=row, filter=EP4), SmootherConfig(MEDIAN, 301))
        means.append(out.smoothed.mean())
    assert np.mean(means) == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("kind", [MEAN, "epan"])
def test_kernel_smoother_rows_match_per_row_formula(kind):
    # each row of a batch is smoothed exactly as on its own; the fsum oracle
    # below checks the values
    raw = np.random.default_rng(3).standard_normal((3, 200)) ** 2
    out = smooth_periodogram(Periodogram(raw=raw, filter=EP4), SmootherConfig(kind, 31))
    for row, got in zip(raw, out.smoothed):
        alone = smooth_periodogram(Periodogram(raw=row[None, :], filter=EP4),
                                   SmootherConfig(kind, 31))
        assert np.array_equal(got, alone.smoothed[0])


def fsum_smooth(row, binwidth, kind):
    """Kernel smoother by exactly rounded sums over each edge-shrunk window."""
    n, half = row.size, binwidth // 2
    out = np.empty(n)
    for k in range(n):
        lo, hi = max(k - half, 0), min(k + half, n - 1)
        m = np.arange(lo, hi + 1) - k
        w = np.ones(m.size) if kind == MEAN else 1.0 - (m / (half + 1)) ** 2
        out[k] = math.fsum(w * row[lo : hi + 1]) / math.fsum(w)
    return out


@pytest.mark.parametrize("kind", [MEAN, "epan"])
@pytest.mark.parametrize("n,binwidth", [(50, 3), (400, 31), (97, 97), (1000, 301)])
def test_kernel_smoother_matches_fsum_oracle(kind, n, binwidth):
    # rows spanning 1e14, and rows of 1e-7 with spikes of 1e7 one binwidth
    # apart, at several phases against the blocks, so every spike sits on the
    # left or right edge of some window, where the Epanechnikov weight is
    # smallest and its moment sums cancel most
    rng = np.random.default_rng(n + binwidth)
    spread = rng.standard_normal((2, n)) ** 2 * 10.0 ** rng.uniform(-7, 7, (2, n))
    spikes = np.full((4, n), 1e-7)
    for r, phase in enumerate((0, 1, binwidth // 2, binwidth - 1)):
        spikes[r, phase::binwidth] = 1e7
    raw = np.vstack([spread, spikes])
    got = smooth_periodogram(Periodogram(raw=raw, filter=EP4), SmootherConfig(kind, binwidth))
    want = np.stack([fsum_smooth(row, binwidth, kind) for row in raw])
    assert np.max(np.abs(got.smoothed - want) / want) < 1e-12


def chunked_median(row, binwidth):
    """The running median as np.median over chunks of 2**20 window elements."""
    n = row.size
    half = binwidth // 2
    out = np.empty(n)
    body = np.lib.stride_tricks.sliding_window_view(row, binwidth)
    step = max(1, 2**20 // binwidth)
    for start in range(0, body.shape[0], step):
        rows = slice(start, start + step)
        out[half : n - half][rows] = np.median(body[rows], axis=1)
    for i in range(half):
        out[i] = np.median(row[: i + half + 1])
        out[n - 1 - i] = np.median(row[n - 1 - i - half :])
    return out


def median_cases():
    """(row, binwidth): squared normals, ties, exact zeros; b = 3, 5, 129, n or n - 1."""
    rng = np.random.default_rng(16)
    for n in (7, 8, 50, 100, 101, 1024):
        widest = n if n % 2 else n - 1
        rows = [rng.standard_normal(n) ** 2, np.round(rng.standard_normal(n) ** 2, 1)]
        rows.append(np.where(rng.random(n) < 0.4, 0.0, rng.standard_normal(n) ** 2))
        for b in sorted({3, 5, min(129, widest), widest}):
            yield from ((row, b) for row in rows)


def test_running_median_matches_chunked_np_median():
    # even-length edge windows (b + 1) / 2 ... b - 1 are covered at every b
    cases = list(median_cases())
    assert len(cases) == 57
    for row, b in cases:
        assert np.array_equal(spectrum._running_median(row, b), chunked_median(row, b))


@pytest.mark.parametrize("kind", [MEAN, MEDIAN, "epan", NONE])
def test_nonfinite_periodogram_refused_before_smoothing(kind):
    raw = np.arange(1.0, 12.0)[None, :]
    raw[0, 5] = np.nan
    with pytest.raises(WavetrendError, match="periodogram holds NaN"):
        smooth_periodogram(Periodogram(raw=raw, filter=EP4), SmootherConfig(kind, 3))


def test_none_smoother_passthrough():
    pgram = wavelet_periodogram(np.arange(32.0), EP4, 2)
    out = smooth_periodogram(pgram, SmootherConfig(NONE, 5))
    assert np.allclose(out.values(), pgram.raw, atol=0)


def test_correction_inverse_identity():
    acw = autocorrelation_wavelets(EP4, 3)
    A = a_matrix(acw, 3)
    s = np.array([1.0, 0.5, 0.25])
    column = A.matrix @ s
    pgram = Periodogram(raw=np.tile(column[:, None], (1, 16)), filter=EP4)
    est = correct_periodogram(pgram)
    assert np.allclose(est.S, s[:, None], atol=1e-10)


def test_correction_haar_single_scale():
    pgram = Periodogram(raw=np.full((1, 16), 1.5), filter=HAAR)
    est = correct_periodogram(pgram)
    assert np.allclose(est.S, 1.0, atol=1e-12)


@pytest.mark.parametrize("diff", [None, (2, 1), (1, 2)])
def test_correction_follows_the_periodogram(diff):
    # the filter, depth and differencing of the periodogram pick the operator
    J = 3
    pgram = wavelet_periodogram(np.random.default_rng(0).standard_normal(64), EP4, J,
                                diff=diff)
    acw = autocorrelation_wavelets(EP4, J)
    want = a_matrix(acw, J) if diff is None else d_matrix(acw, J, *diff)
    est = correct_periodogram(pgram)
    assert np.array_equal(est.correction.matrix, want.matrix)
    assert np.array_equal(est.S, want.inverse @ pgram.values())
    assert (est.levels, est.filter) == (J, EP4)


def test_estimate_requires_length():
    with pytest.raises(SeriesTooShort):
        estimate_spectrum(np.zeros(15))


@pytest.mark.parametrize("boundary", [True, False])
def test_oversize_diff_lag_rejected(boundary):
    # lag * order + 2 <= n holds on the series itself, whatever the extension
    x = np.random.default_rng(6).standard_normal(1000)
    with pytest.raises(SeriesTooShort):
        estimate_spectrum(x, diff=(1500, 1), boundary=boundary)
    with pytest.raises(SeriesTooShort):
        wavelet_periodogram(x, EP4, 3, boundary=boundary, diff=(999, 1))


@pytest.mark.parametrize("diff", [(5, 0), (0, 0)])
def test_diff_pairs_other_than_none_are_checked(diff):
    # only diff=None skips differencing; order 0 is an invalid pair, not "none"
    x = np.random.default_rng(6).standard_normal(256)
    with pytest.raises(InvalidDiffSpec):
        estimate_spectrum(x, diff=diff)
    with pytest.raises(InvalidDiffSpec):
        d_matrix(autocorrelation_wavelets(EP4, 3), 3, *diff)


def test_diff_lag_leaving_too_few_points_named():
    # without the extension the differenced series itself must hold 2**levels
    # points; the error names the lag, not only the depth
    x = np.random.default_rng(6).standard_normal(1000)
    with pytest.raises(SeriesTooShort, match="lag 998, order 1"):
        estimate_spectrum(x, diff=(998, 1), boundary=False)
    est = estimate_spectrum(x, diff=(936, 1), boundary=False)
    assert est.S.shape == (default_levels(1000), 1000)


def test_diff_lag_just_inside_bound():
    x = np.random.default_rng(6).standard_normal(1000)
    est = estimate_spectrum(x, diff=(998, 1))
    assert est.S.shape == (default_levels(1000), 1000)
    assert np.all(np.isfinite(est.S))


def test_scale_equivariance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(128)
    for diff in (None, (1, 1)):
        a = estimate_spectrum(x, diff=diff)
        b = estimate_spectrum(3.0 * x, diff=diff)
        assert np.allclose(b.S, 9.0 * a.S, rtol=1e-10, atol=1e-12)


def test_polynomial_trend_invariance_interior():
    rng = np.random.default_rng(5)
    n = 256
    x = rng.standard_normal(n)
    t = np.arange(n) / n
    cubic = 40.0 * (t - 0.4) ** 3  # degree filter_number - 1
    a = estimate_spectrum(x, filter_number=4, levels=4)
    b = estimate_spectrum(x + cubic, filter_number=4, levels=4)
    # interior must clear both the smoother half-width and the deepest
    # wavelet support radius, else boundary columns leak into the average
    acw_len = (2**4 - 1) * 7 + 1
    margin = a.periodogram.smoother.binwidth // 2 + (acw_len - 1) // 2 + 1
    interior = slice(margin, n - margin)
    denom = np.maximum(np.abs(a.S[:, interior]), 1e-9)
    assert np.max(np.abs(a.S[:, interior] - b.S[:, interior]) / denom) < 1e-6


def test_periodic_sequence_invariance_differenced():
    # a lag-4 difference removes any period-4 component before the
    # transform; periodic (unextended) analysis keeps that exact, whereas
    # reflection would break the period's phase at the seam
    rng = np.random.default_rng(6)
    n = 256
    x = rng.standard_normal(n)
    period = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), n // 4)
    a = estimate_spectrum(x, diff=(4, 1), boundary=False)
    b = estimate_spectrum(x + period, diff=(4, 1), boundary=False)
    assert np.max(np.abs(a.S - b.S)) < 1e-10


def test_stationary_unbiasedness():
    # constant spectrum rows: corrected estimate unbiased per scale
    from wavetrend.simulate import max_scales, tlsw_sim

    n, reps, J = 256, 200, 4
    spec = np.zeros((max_scales(n), n))
    spec[0], spec[1], spec[3] = 1.0, 0.5, 2.0
    truth = spec[:J, 0]
    per_rep = np.empty((reps, J))
    interior = slice(64, 192)
    for r in range(reps):
        x = tlsw_sim(spec=spec, family="extremal_phase", filter_number=4, seed=5000 + r)
        est = estimate_spectrum(x, levels=J)
        per_rep[r] = est.S[:, interior].mean(axis=1)
    se = per_rep.std(axis=0, ddof=1) / np.sqrt(reps)
    bias = np.abs(per_rep.mean(axis=0) - truth)
    assert np.all(bias < 3 * se + 0.02)


def test_x2_scale3_peak_location():
    # the localised bump should place the running maximum near its centre
    x2 = scenario("x2")
    hits = 0
    for rep in range(20):
        x = x2.simulate(seed=2000 + rep)
        est = estimate_spectrum(x, diff=(1, 1), smoother=MEDIAN, binwidth=129)
        peak = int(np.argmax(est.S[2]))
        hits += 300 <= peak <= 500
    assert hits >= 16


def uncropped_periodogram(x, filt, levels, diff):
    """The raw periodogram from a transform of the whole trend-reflect extension."""
    n = x.size
    lag, order = (0, 0) if diff is None else diff
    desc = extension_descriptor(n, TREND_REFLECT)
    y = extend_rows(x, desc)
    if order:
        y = difference_series(y, lag, order)
    start = desc.offset - lag * order // 2
    pyr = ndwt_forward(y, filt, levels)
    return np.stack([pyr.detail(j)[start : start + n] for j in range(1, levels + 1)]) ** 2


@pytest.mark.parametrize("diff", [None, (1, 1), (2, 1)])
@pytest.mark.parametrize("number,family", [
    (1, EXTREMAL_PHASE), (2, EXTREMAL_PHASE), (4, EXTREMAL_PHASE), (10, EXTREMAL_PHASE),
    (4, LEAST_ASYMMETRIC), (8, LEAST_ASYMMETRIC), (10, LEAST_ASYMMETRIC),
])
def test_cropped_periodogram_matches_uncropped(number, family, diff):
    # 287 of these 420 periodograms crop; at n = 64 the default EP4 span
    # (169) is longer than the extension (128), so that one does not
    filt = wavelet_filter(family, number)
    for n in (64, 300, 1000, 1024, 2500):
        x = np.random.default_rng(n).standard_normal(n) + np.linspace(0.0, 3.0, n)
        for levels in {1, 3, default_levels(n), max_scales(n)}:
            raw = wavelet_periodogram(x, filt, levels, diff=diff).raw
            assert np.array_equal(raw, uncropped_periodogram(x, filt, levels, diff)), (n, levels)


def test_cropped_periodogram_span(monkeypatch):
    # EP4 at the default depth: details on the n window columns only, each
    # smooth as wide as the deeper levels read (the first one the span of
    # n + L_11 - 1 less 7) and the deepest none; unextended rows are whole
    x = np.random.default_rng(1).standard_normal(65536)
    calls = filter_bank_calls(monkeypatch)
    for diff in (None, (2, 1)):
        wavelet_periodogram(x, EP4, default_levels(65536), diff=diff)
        assert calls[::2] == [(65_536, 8)] * 11
        assert calls[1] == (79_865 - 7, 8) and calls[-1] == (0, 8)
        assert sum(cols * terms for cols, terms in calls) == 12_042_352  # 14.1 M on whole spans
        calls.clear()
    wavelet_periodogram(x, EP4, default_levels(65536), boundary=False)
    assert calls == [(65_536, 8)] * 22
