"""Trend estimators, thresholding, and confidence intervals."""

import itertools
import tracemalloc
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

import wavetrend
from wavetrend.errors import (
    DimensionMismatch,
    MatrixMismatch,
    MethodMismatch,
    MissingSpectrum,
    NegativeThreshold,
    ScaleTooDeep,
    WavetrendError,
)
from wavetrend.filters import EXTREMAL_PHASE, LEAST_ASYMMETRIC, wavelet_filter
from wavetrend.lacv import LacvEstimate, lacv_from_spectrum
from wavetrend.scenarios import scenario
from wavetrend.simulate import max_scales, tlsw_sim
from wavetrend.spectrum import default_levels, estimate_spectrum
from wavetrend.transforms import (
    DECIMATED,
    NONDECIMATED,
    CoefficientPyramid,
    centre_shift,
    detail_support,
    dwt_inverse,
    extend_rows,
    ndwt_average_basis,
    ndwt_forward,
)
from wavetrend.trend import (
    BOOT_NORMAL,
    BOOT_PERCENTILE,
    HARD,
    NONLINEAR,
    SOFT,
    EstimatorConfig,
    ThresholdPolicy,
    _block_rows,
    _edit_for,
    _edited_fit,
    _extension,
    _operator_factors,
    _visible_span,
    analytic_ci,
    bootstrap_ci,
    estimate_trend,
    threshold,
    variance_matrix,
)
from wavetrend.wavelets import autocorrelation_wavelets, support_length

from test_transforms import add_at_adjoint, filter_bank_calls

EP4 = wavelet_filter(EXTREMAL_PHASE, 4)
HAAR = wavelet_filter(EXTREMAL_PHASE, 1)


def test_threshold_rules():
    assert threshold(3.0, 1.0, SOFT) == pytest.approx(2.0)
    assert threshold(-0.5, 1.0, HARD) == 0.0
    assert threshold(-3.0, 1.0, SOFT) == pytest.approx(-2.0)
    assert threshold(0.7, 0.7, HARD) == 0.0  # strict inequality keeps ties out
    with pytest.raises(NegativeThreshold):
        threshold(1.0, -0.1, HARD)
    with pytest.raises(MethodMismatch):
        threshold(1.0, 0.1, "fuzzy")


def test_threshold_policy_scales():
    n = 512
    assert ThresholdPolicy(normal_assumption=True).scale(n) == pytest.approx(
        np.sqrt(2 * np.log(n))
    )
    assert ThresholdPolicy(normal_assumption=False).scale(n) == pytest.approx(np.log(n))


@pytest.mark.parametrize("transform", [DECIMATED, NONDECIMATED])
@pytest.mark.parametrize("number,family", [(1, EXTREMAL_PHASE), (4, EXTREMAL_PHASE),
                                           (6, LEAST_ASYMMETRIC)])
def test_constant_series_exact(transform, number, family):
    x = np.full(128, 2.75)
    fit = estimate_trend(
        x, EstimatorConfig(filter_number=number, family=family, transform=transform)
    )
    assert np.allclose(fit.values, 2.75, atol=1e-10)


@pytest.mark.parametrize("transform", [DECIMATED, NONDECIMATED])
def test_cubic_polynomial_recovered(transform):
    n = 256
    z = np.arange(n) / n
    x = 3.0 * (32 * z**3 - 48 * z**2 + 22 * z - 3)
    fit = estimate_trend(x, EstimatorConfig(filter_number=4, transform=transform))
    assert np.max(np.abs(fit.values - x)) < 1e-6 * np.max(np.abs(x))


def test_shift_and_scale_equivariance():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(200)
    base = estimate_trend(x, EstimatorConfig()).values
    assert np.allclose(estimate_trend(x + 5.0, EstimatorConfig()).values, base + 5.0, atol=1e-10)
    assert np.allclose(estimate_trend(2.5 * x, EstimatorConfig()).values, 2.5 * base, atol=1e-10)


def test_zero_spectrum_reconstructs_data():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(128)
    sp = estimate_spectrum(x, levels=4)
    zero = replace(sp, S=np.zeros_like(sp.S))
    fit = estimate_trend(x, EstimatorConfig(method=NONLINEAR, levels=4), zero)
    assert np.max(np.abs(fit.values - x)) < 1e-8


def test_infinite_threshold_is_scaling_projection():
    # with every detail killed the nonlinear estimator collapses onto the
    # linear one whenever the linear kept set is also empty (periodic DWT)
    rng = np.random.default_rng(14)
    x = rng.standard_normal(128)
    sp = estimate_spectrum(x, levels=4)
    huge = replace(sp, S=np.full_like(sp.S, 1e12))
    config = EstimatorConfig(levels=4, transform=DECIMATED, boundary=False)
    nl = estimate_trend(x, replace(config, method=NONLINEAR), huge)
    lin = estimate_trend(x, config)
    assert np.allclose(nl.values, lin.values, atol=1e-8)


def test_nonlinear_needs_spectrum():
    cfg = EstimatorConfig(method=NONLINEAR)
    with pytest.raises(MissingSpectrum):
        estimate_trend(np.zeros(64), cfg)


def test_config_rejects_unknown_method_or_transform():
    for fields in ({"transform": "dec"}, {"method": "bogus"}):
        with pytest.raises(MethodMismatch):
            EstimatorConfig(**fields)


@pytest.mark.parametrize("levels", [0, -1])
def test_config_rejects_depth_below_one(levels):
    # -1 once reached the cropped span as float bounds and failed with a TypeError
    with pytest.raises(ScaleTooDeep, match="levels must be at least 1"):
        EstimatorConfig(levels=levels)


def test_policy_rejects_unknown_kind():
    # a linear fit never thresholds, so only the policy can catch a bad kind
    for kind in ("fuzzy", "Hard"):
        with pytest.raises(MethodMismatch, match=kind):
            ThresholdPolicy(kind)


def test_estimate_carries_resolved_config():
    x = np.random.default_rng(16).standard_normal(300)
    policy = ThresholdPolicy(SOFT, False)
    fit = estimate_trend(x, EstimatorConfig(policy=policy, family="DaubLeAsymm"))
    assert fit.config == EstimatorConfig(
        levels=default_levels(300), family=LEAST_ASYMMETRIC, policy=policy
    )
    assert fit.levels == fit.config.levels and fit.filter.family == LEAST_ASYMMETRIC
    sp = estimate_spectrum(x)
    config = EstimatorConfig(method=NONLINEAR, levels=3, filter_number=6, policy=policy)
    assert estimate_trend(x, config, sp).config == config
    # the resolved config reruns the same fit
    assert np.array_equal(estimate_trend(x, fit.config).values, fit.values)


def test_filter_and_levels_follow_config():
    # a fit stores no filter or depth of its own: replacing the config moves both
    x = np.random.default_rng(17).standard_normal(200)
    fit = estimate_trend(x, EstimatorConfig())
    assert fit.filter.number == 4 and fit.levels == default_levels(200)
    moved = replace(fit, config=replace(fit.config, filter_number=6, levels=3))
    assert moved.filter.number == 6 and moved.levels == 3
    assert moved.filter.label == wavelet_filter(EXTREMAL_PHASE, 6).label


def test_nonlinear_spectrum_length_guard():
    rng = np.random.default_rng(15)
    sp = estimate_spectrum(rng.standard_normal(128))
    with pytest.raises(MatrixMismatch):
        estimate_trend(rng.standard_normal(64), EstimatorConfig(method=NONLINEAR), sp)


@pytest.mark.parametrize("kind", [HARD, SOFT])
def test_nonlinear_fit_floors_its_spectrum(kind):
    # a library fit on the unfloored estimate is the fit on its floored
    # copy, the spectrum the CLI thresholds with (they were 1.04 apart)
    x = scenario("x1").simulate(seed=3)
    sp = estimate_spectrum(x, diff=(1, 1))
    assert np.any(sp.S < 0.0)
    floored = replace(sp, S=np.maximum(sp.S, 0.0), floored=True)
    config = EstimatorConfig(method=NONLINEAR, policy=ThresholdPolicy(kind))
    fit = estimate_trend(x, config, sp)
    assert np.array_equal(fit.values, estimate_trend(x, config, floored).values)


def test_package_exports_resolve():
    for name in wavetrend.__all__:
        assert hasattr(wavetrend, name), name


def haar_spectrum(S):
    base = estimate_spectrum(
        np.random.default_rng(0).standard_normal(S.shape[1]),
        filter_number=1,
        levels=S.shape[0],
    )
    return replace(base, S=np.asarray(S, dtype=np.float64))


def test_coefficient_variance_haar_identity():
    # unit spectrum at scale 1 mixes through A[0, 0] = 1.5 only
    sp = haar_spectrum(np.ones((1, 16)))
    value = variance_matrix(sp, HAAR, 1)[0, 8]
    assert value == pytest.approx(1.5, abs=1e-12)


def test_coefficient_variance_floor():
    sp = haar_spectrum(np.full((1, 16), -4.0))
    assert variance_matrix(sp, HAAR, 1)[0, 3] == 0.0


def test_coefficient_variance_needs_an_estimate():
    # a plain matrix names no generating filter to pair with the analysis one
    with pytest.raises(MatrixMismatch):
        variance_matrix(np.ones((1, 16)), HAAR, 1)


def make_linear_fit(n=128, seed=0, transform=DECIMATED):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return x, estimate_trend(x, EstimatorConfig(transform=transform))


def test_analytic_ci_zero_lacv():
    x, fit = make_linear_fit()
    acw = autocorrelation_wavelets(EP4, 5)
    with pytest.warns(RuntimeWarning):
        lv = lacv_from_spectrum(np.zeros((5, x.size)), acw, lag_max=5)
    out = analytic_ci(fit, lv)
    assert np.allclose(out.ci_lo, out.values, atol=1e-12)
    assert np.allclose(out.ci_hi, out.values, atol=1e-12)


def test_analytic_ci_width_scales_with_quantile():
    x, fit = make_linear_fit(seed=4)
    sp = estimate_spectrum(x, levels=5)
    sp = replace(sp, S=np.maximum(sp.S, 0.0))
    acw = autocorrelation_wavelets(EP4, 5)
    lv = lacv_from_spectrum(sp, acw)
    wide = analytic_ci(fit, lv, alpha=0.05)
    narrow = analytic_ci(fit, lv, alpha=0.32)
    w1 = narrow.ci_hi - narrow.ci_lo
    w2 = wide.ci_hi - wide.ci_lo
    mask = w2 > 1e-12
    ratios = w1[mask] / w2[mask]
    assert np.allclose(ratios, 0.50739, atol=1e-3)


def test_analytic_ci_requires_decimated_linear():
    x, fit = make_linear_fit(transform=NONDECIMATED)
    acw = autocorrelation_wavelets(EP4, 5)
    lv = lacv_from_spectrum(np.ones((5, x.size)), acw, lag_max=3)
    with pytest.raises(MethodMismatch):
        analytic_ci(fit, lv)


def test_analytic_ci_lacv_length_guard():
    x, fit = make_linear_fit()
    acw = autocorrelation_wavelets(EP4, 5)
    lv = lacv_from_spectrum(np.ones((5, 64)), acw, lag_max=3)
    with pytest.raises(MatrixMismatch):
        analytic_ci(fit, lv)


def _linear_operator(trend):
    """R with trend.values = R @ x for the fit's linear estimator.

    Column s is the estimator applied to unit vector s.  Unit vectors go
    through _edited_fit as blocks of _block_rows identity rows, so the
    memory beyond R stays fixed.
    """
    n = trend.length
    desc = _extension(n, trend.config.boundary)
    edits = _edit_for(trend.config, None, trend.filter, trend.levels, desc)
    block = _block_rows(desc, trend.levels, DECIMATED)
    rows = np.empty((n, n))
    for s in range(0, n, block):
        k = min(block, n - s)
        fits = _edited_fit(np.eye(k, n, s), trend.filter, DECIMATED, desc, edits)
        rows[:, s : s + k] = fits.T
    return rows


def unit_vector_operator(fit):
    """The linear operator one estimate_trend call per unit vector at a time."""
    n = fit.length
    rows = np.empty((n, n))
    basis = np.zeros(n)
    for s in range(n):
        basis[s] = 1.0
        rows[:, s] = estimate_trend(basis, fit.config).values
        basis[s] = 0.0
    return rows


@pytest.mark.parametrize("number,family", [(1, EXTREMAL_PHASE), (4, EXTREMAL_PHASE),
                                           (8, LEAST_ASYMMETRIC)])
@pytest.mark.parametrize("n,boundary", [(64, True), (100, True), (257, True), (512, True),
                                        (64, False), (512, False)])
def test_linear_operator_matches_unit_vector_loop(number, family, n, boundary):
    # identity blocks of max(1, 2**16 // extended length) rows: 128 rows at
    # n = 100, 64 at n = 257 (a partial last block), 32 at n = 512
    x = np.random.default_rng(n).standard_normal(n)
    config = EstimatorConfig(filter_number=number, family=family, transform=DECIMATED,
                             boundary=boundary)
    fit = estimate_trend(x, config)
    rows = _linear_operator(fit)
    assert np.array_equal(rows, unit_vector_operator(fit))
    assert np.allclose(rows @ x, fit.values, atol=1e-10)


@pytest.mark.parametrize("number,family", [(1, EXTREMAL_PHASE), (4, EXTREMAL_PHASE),
                                           (8, LEAST_ASYMMETRIC)])
@pytest.mark.parametrize("n,boundary", [(64, True), (100, True), (257, True), (512, True),
                                        (64, False), (512, False)])
def test_operator_factors_match_dense_operator(number, family, n, boundary):
    # LA8 at n = 64 with boundary handling keeps 89 factor rows, more than n
    x = np.random.default_rng(n).standard_normal(n)
    config = EstimatorConfig(filter_number=number, family=family, transform=DECIMATED,
                             boundary=boundary)
    fit = estimate_trend(x, config)
    u, v = _operator_factors(fit)
    assert u.shape == v.shape == (u.shape[0], n)
    rows = _linear_operator(fit)
    assert np.max(np.abs(u.T @ v - rows)) <= 1e-13 * np.max(np.abs(rows))


def _interior_mask(mode, filter_length, level, count, desc):
    """True where a detail coefficient's support lies inside the data window."""
    total = desc.extended_length
    if desc.original_length == total:
        return np.ones(count, dtype=bool)
    start, length = detail_support(mode, filter_length, level, np.arange(count))
    start = start % total
    end = desc.offset + desc.original_length  # never past total
    return (start >= desc.offset) & (start + length <= end)


def _meets_window(start, length, desc):
    """True where the circular support [start, start + length) meets the data window."""
    total = desc.extended_length
    start = start % total
    # the window, and its copy one period on, which a wrapping support reaches
    inside = (start < desc.offset + desc.original_length) & (start + length > desc.offset)
    return inside | (start + length > desc.offset + total)


def _threshold_rows(spectrum, filt, levels, policy, mode, desc):
    """Per level, lambda at the in-window time nearest each coefficient's centre."""
    n, total = desc.original_length, desc.extended_length
    floored = replace(spectrum, S=np.maximum(spectrum.S, 0.0))
    sigma = np.sqrt(variance_matrix(floored, filt, levels))
    rows = []
    for level in range(1, levels + 1):
        centres = np.arange(total >> level if mode == DECIMATED else total)
        if mode == DECIMATED:
            start, length = detail_support(mode, filt.length, level, centres)
            centres = start + (length - 1) // 2
        times = np.clip(centres - desc.offset, 0, n - 1)
        rows.append(policy.scale(n) * sigma[level - 1, times])
    return rows


# EP10 at depth 6 with n = 512: L_6 = 1198, so unextended supports wrap the
# row more than twice
GEOMETRY_CASES = [(number, family, None, 300) for number, family in
                  [(1, EXTREMAL_PHASE), (4, EXTREMAL_PHASE), (8, LEAST_ASYMMETRIC),
                   (10, EXTREMAL_PHASE)]] + [(10, EXTREMAL_PHASE, 6, 512)]


@pytest.mark.parametrize("number,family,depth,n", GEOMETRY_CASES)
@pytest.mark.parametrize("transform", [DECIMATED, NONDECIMATED])
@pytest.mark.parametrize("boundary", [True, False])
@pytest.mark.parametrize("span", ["whole", "visible"])
def test_edits_match_geometry_oracles(number, family, depth, n, transform, boundary, span):
    x = crop_series(n)
    sp = estimate_spectrum(x)
    filt = wavelet_filter(family, number)
    levels = default_levels(n) if depth is None else depth
    config = EstimatorConfig(transform=transform, boundary=boundary, levels=levels,
                             filter_number=number, family=family)
    desc = (_extension(n, boundary) if span == "whole"
            else _visible_span(n, config, filt.length, levels))
    masks = _edit_for(config, None, filt, levels, desc)
    policy = ThresholdPolicy(SOFT)
    nonlinear = replace(config, method=NONLINEAR, policy=policy)
    lams = _edit_for(nonlinear, sp, filt, levels, desc)
    want = _threshold_rows(sp, filt, levels, policy, transform, desc)
    assert len(masks) == len(lams) == levels
    cropped = transform == NONDECIMATED and desc != _extension(n, boundary)
    for j in range(1, levels + 1):
        count = desc.extended_length >> j if transform == DECIMATED else desc.extended_length
        # a cropped fit computes the level-j details whose synthesis reaches
        # the window: n + L_j - 1 of them, ending s_j past it
        columns = (desc.offset + centre_shift(filt.length, j)
                   + np.arange(1 - support_length(filt.length, j), n)) if cropped else slice(None)
        mask, lam = masks[j - 1].args[0], lams[j - 1].keywords["lam"]
        expected = _interior_mask(transform, filt.length, j, count, desc)[columns]
        assert np.array_equal(mask, expected), j
        assert np.array_equal(lam, want[j - 1][columns]), j
        assert lams[j - 1].keywords["kind"] == SOFT


def unit_pyramid_factors(fit):
    """(U, V) from one unit pyramid per kept coefficient, inverted in one
    batch, and the scatter adjoint of the extension."""
    filt, levels = fit.filter, fit.levels
    desc = _extension(fit.length, fit.config.boundary)
    total = desc.extended_length
    depths = [*range(1, levels + 1), levels]
    picks = []
    for i, j in enumerate(depths):
        count = total >> j
        start, length = detail_support(DECIMATED, filt.length, j, np.arange(count))
        keep = _meets_window(start, length, desc)
        if i < levels:
            keep &= ~_interior_mask(DECIMATED, filt.length, j, count, desc)
        picks.append(np.flatnonzero(keep))
    k = sum(p.size for p in picks)
    units = [np.zeros((k, total >> j)) for j in depths]
    first = 0
    for coeffs, p in zip(units, picks):
        coeffs[np.arange(first, first + p.size), p] = 1.0
        first += p.size
    basis = dwt_inverse(CoefficientPyramid(DECIMATED, filt, tuple(units[:-1]), units[-1]))
    return basis[:, desc.window()], add_at_adjoint(basis, desc)


@pytest.mark.parametrize("number,family", [(1, EXTREMAL_PHASE), (4, EXTREMAL_PHASE),
                                           (8, LEAST_ASYMMETRIC), (10, EXTREMAL_PHASE)])
@pytest.mark.parametrize("n,boundary", [(64, True), (100, True), (257, True), (300, True),
                                        (512, True), (64, False), (512, False)])
def test_operator_factors_match_unit_pyramid_oracle(number, family, n, boundary):
    # the basis rows are shifted templates with the same multiply-adds, so U
    # is exact; V folds the extension pads in another order
    x = np.random.default_rng(n).standard_normal(n)
    config = EstimatorConfig(filter_number=number, family=family, transform=DECIMATED,
                             boundary=boundary)
    fit = estimate_trend(x, config)
    (u, v), (want_u, want_v) = _operator_factors(fit), unit_pyramid_factors(fit)
    assert np.array_equal(u, want_u)
    assert v.shape == want_v.shape
    assert np.max(np.abs(v - want_v)) <= 1e-15 * np.max(np.abs(want_v))


def dense_half_widths(fit, lv, alpha=0.05):
    """Analytic half-widths from the dense operator, pair sums lag by lag."""
    rows, c, n = _linear_operator(fit), lv.lacv, fit.length
    var = np.zeros(n)
    for d in range(lv.lag_max + 1):
        pair = (rows[:, : n - d] * rows[:, d:]) @ c[d:, d]
        var += pair if d == 0 else 2.0 * pair
    return NormalDist().inv_cdf(1.0 - alpha / 2.0) * np.sqrt(np.maximum(var, 0.0))


@pytest.mark.parametrize("n,boundary", [(100, True), (257, True), (128, False), (512, True)])
@pytest.mark.parametrize("lag_max", [None, 0, "n"])
def test_analytic_half_widths_match_dense_formula(n, boundary, lag_max):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    fit = estimate_trend(x, EstimatorConfig(transform=DECIMATED, boundary=boundary))
    spectrum = np.abs(rng.standard_normal((5, n)))
    acw = autocorrelation_wavelets(EP4, 5)
    if lag_max == "n":
        # every lag of the series; an estimate with lags of n or more is refused
        with pytest.raises(DimensionMismatch, match="lag_max < n"):
            LacvEstimate(spectrum.T @ acw.window(5, n)[:, n:])
        lag_max = n - 1
    lv = lacv_from_spectrum(spectrum, acw, lag_max=lag_max)
    out = analytic_ci(fit, lv)
    half = dense_half_widths(fit, lv)
    assert np.array_equal(out.values, fit.values)
    assert np.max(np.abs((out.ci_hi - out.values) - half)) <= 1e-12 * np.max(half)
    assert np.max(np.abs((out.values - out.ci_lo) - half)) <= 1e-12 * np.max(half)


def test_analytic_ci_at_size_limit():
    # the dense operator alone would take 512 MiB at n = 8192
    n = 8192
    x = np.random.default_rng(8192).standard_normal(n)
    fit = estimate_trend(x, EstimatorConfig(transform=DECIMATED))
    # the default lag_max, then 300 lags: a front pad of 300 columns on each factor row
    for lag_max in (None, 300):
        lv = lacv_from_spectrum(np.ones((5, n)), autocorrelation_wavelets(EP4, 5), lag_max)
        tracemalloc.start()
        try:
            out = analytic_ci(fit, lv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        assert np.isfinite(out.ci_lo).all() and np.isfinite(out.ci_hi).all()
        assert np.all(out.ci_lo <= out.values) and np.all(out.values <= out.ci_hi)
    x = np.append(x, 0.0)
    fit = estimate_trend(x, EstimatorConfig(transform=DECIMATED))
    lv = lacv_from_spectrum(np.ones((5, n + 1)), autocorrelation_wavelets(EP4, 5), lag_max=3)
    with pytest.raises(MethodMismatch, match="8192"):
        analytic_ci(fit, lv)


def test_interval_input_checks():
    x, fit = make_linear_fit()
    acw = autocorrelation_wavelets(EP4, 5)
    lv = lacv_from_spectrum(np.ones((5, x.size)), acw, lag_max=3)
    _, short_fit = make_linear_fit(n=100, seed=1)
    with pytest.raises(MatrixMismatch):
        analytic_ci(short_fit, lv)
    sp = estimate_spectrum(x, levels=5)
    with pytest.raises(MatrixMismatch):
        bootstrap_ci(short_fit, sp, reps=40)


def test_bootstrap_guards():
    x, fit = make_linear_fit()
    sp = estimate_spectrum(x, levels=5)
    with pytest.raises(MethodMismatch):
        bootstrap_ci(fit, sp, reps=50, ci_type="analytic")
    with pytest.raises(MissingSpectrum):
        bootstrap_ci(fit, None, reps=50)


@pytest.mark.parametrize("seed", [1.5, np.float64(1.0), -1, "1", np.random.SeedSequence(1)])
def test_bootstrap_rejects_non_integer_seeds(seed):
    # a float seed used to give the seed-1 interval, a SeedSequence a TypeError
    x, fit = make_linear_fit()
    sp = estimate_spectrum(x, levels=5)
    with pytest.raises(WavetrendError, match="seed must be a nonnegative integer"):
        bootstrap_ci(fit, sp, reps=40, seed=seed)


def test_bootstrap_accepts_numpy_integer_seed():
    x, fit = make_linear_fit()
    sp = estimate_spectrum(x, levels=5)
    a = bootstrap_ci(fit, sp, reps=40, seed=np.int64(3))
    assert np.array_equal(a.ci_lo, bootstrap_ci(fit, sp, reps=40, seed=3).ci_lo)


def test_bootstrap_seed_none_is_seed_zero():
    x, fit = make_linear_fit()
    sp = estimate_spectrum(x, levels=5)
    a = bootstrap_ci(fit, sp, reps=40, seed=None)
    b = bootstrap_ci(fit, sp, reps=40, seed=0)
    assert a.ci_lo.tobytes() == b.ci_lo.tobytes() and a.ci_hi.tobytes() == b.ci_hi.tobytes()


def test_bootstrap_determinism_and_shape():
    x, fit = make_linear_fit(seed=6)
    sp = estimate_spectrum(x, levels=5)
    a = bootstrap_ci(fit, sp, reps=40, seed=9)
    b = bootstrap_ci(fit, sp, reps=40, seed=9)
    c = bootstrap_ci(fit, sp, reps=40, seed=10)
    assert np.array_equal(a.ci_lo, b.ci_lo) and np.array_equal(a.ci_hi, b.ci_hi)
    assert not np.array_equal(a.ci_lo, c.ci_lo)
    assert a.reps == 40 and a.ci_type == BOOT_PERCENTILE


def test_bootstrap_normal_symmetric():
    x, fit = make_linear_fit(seed=7)
    sp = estimate_spectrum(x, levels=5)
    out = bootstrap_ci(fit, sp, reps=40, ci_type=BOOT_NORMAL, seed=1)
    assert np.allclose(out.ci_hi - out.values, out.values - out.ci_lo, atol=1e-9)


def test_bootstrap_zero_spectrum_zero_width():
    x, fit = make_linear_fit(seed=8)
    sp = estimate_spectrum(x, levels=5)
    zero = replace(sp, S=np.zeros_like(sp.S))
    out = bootstrap_ci(fit, zero, reps=40, seed=2)
    assert np.allclose(out.ci_hi - out.ci_lo, 0.0, atol=1e-12)


def test_soft_threshold_contraction_element():
    rng = np.random.default_rng(16)
    d = rng.standard_normal(100)
    lam = rng.uniform(0, 2, 100)
    out = threshold(d, lam, SOFT)
    assert np.all(np.abs(out) <= np.abs(d) + 1e-15)


@pytest.mark.parametrize("estimator", ["spectrum", "linear", "nonlinear"])
def test_nonfinite_series_rejected(estimator):
    x = np.random.default_rng(3).standard_normal(128)
    sp = estimate_spectrum(x, levels=5)
    x[40] = np.nan
    with pytest.raises(WavetrendError, match="finite"):
        if estimator == "spectrum":
            estimate_spectrum(x, levels=5)
        elif estimator == "linear":
            estimate_trend(x, EstimatorConfig())
        else:
            estimate_trend(x, EstimatorConfig(method=NONLINEAR, levels=5), sp)


def test_bootstrap_adjacent_seeds_independent():
    # replicate streams of seeds 0 and 1 must not overlap: their interval
    # widths differ about as much as those of unrelated seeds
    x, fit = make_linear_fit(seed=6)
    sp = estimate_spectrum(x, levels=5)

    def width(seed):
        out = bootstrap_ci(fit, sp, reps=40, ci_type=BOOT_NORMAL, seed=seed)
        return out.ci_hi - out.ci_lo

    w0 = width(0)
    adjacent = np.mean(np.abs(width(1) - w0))
    unrelated = np.mean(np.abs(width(12345) - w0))
    assert adjacent > 0.5 * unrelated


def per_replicate_interval(x, fit, sp, reps, alpha, ci_type, seed):
    """bootstrap_ci as one tlsw_sim and one estimate_trend per replicate."""
    n = x.size
    smat = np.zeros((max_scales(n), n))
    smat[: sp.levels] = np.maximum(sp.S, 0.0)
    fits = np.empty((reps, n))
    for b, stream in enumerate(np.random.SeedSequence(seed).spawn(reps)):
        xb = fit.values + tlsw_sim(spec=smat, seed=stream, family=sp.filter.family,
                                      filter_number=sp.filter.number)
        fits[b] = estimate_trend(xb, fit.config, spectrum=sp).values
    if ci_type == BOOT_NORMAL:
        half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * fits.std(axis=0, ddof=1)
        return fit.values - half, fit.values + half
    return np.quantile(fits, alpha / 2.0, axis=0), np.quantile(fits, 1.0 - alpha / 2.0, axis=0)


# (n, config, ci_type, reps).  Replicate blocks (trend._block_rows) hold
# 25 rows at n = 300, 5 at n = 1024 and 32 at n = 512 nondecimated, so
# reps = 41 leaves a partial last block; n = 2048 nondecimated gives
# blocks of 3 rows of its cropped span (test_cropped_bootstrap_matches_uncropped
# has blocks of 1), and the decimated cases fit all replicates in one block
BLOCKED_BOOTSTRAP_CASES = {
    "linear_nondec": (300, EstimatorConfig(), BOOT_NORMAL, 41),
    "linear_dec_no_boundary": (256, EstimatorConfig(transform=DECIMATED, boundary=False),
                               BOOT_PERCENTILE, 40),
    "nonlinear_hard_nondec": (1024, EstimatorConfig(method=NONLINEAR), BOOT_PERCENTILE, 41),
    "nonlinear_soft_dec": (100, EstimatorConfig(method=NONLINEAR, transform=DECIMATED,
                                                policy=ThresholdPolicy(kind=SOFT)),
                           BOOT_NORMAL, 45),
    "nonlinear_soft_no_boundary": (512, EstimatorConfig(method=NONLINEAR, boundary=False,
                                                        policy=ThresholdPolicy(kind=SOFT)),
                                   BOOT_NORMAL, 41),
    "nonlinear_hard_dec_no_boundary": (256, EstimatorConfig(method=NONLINEAR,
                                                            transform=DECIMATED,
                                                            boundary=False),
                                       BOOT_PERCENTILE, 41),
    "block_height_one": (2048, EstimatorConfig(method=NONLINEAR), BOOT_NORMAL, 40),
}


@pytest.mark.parametrize("case", BLOCKED_BOOTSTRAP_CASES.values(),
                         ids=BLOCKED_BOOTSTRAP_CASES.keys())
def test_blocked_bootstrap_matches_per_replicate_loop(case):
    n, config, ci_type, reps = case
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 1.0, n)
    x = np.sin(6.0 * t) + (0.5 + t) * rng.standard_normal(n)
    sp = estimate_spectrum(x)
    fit = estimate_trend(x, config, spectrum=sp)
    out = bootstrap_ci(fit, sp, reps=reps, alpha=0.1, ci_type=ci_type, seed=11)
    lo, hi = per_replicate_interval(x, fit, sp, reps, 0.1, ci_type, 11)
    assert np.array_equal(out.ci_lo, lo) and np.array_equal(out.ci_hi, hi)


def uncropped_fit(x, config, spectrum=None):
    """A nondecimated fit over the whole symmetric-triple extension.

    Extend, transform, edit with the edit built on the full descriptor,
    average the bases, cut out the window: estimate_trend as it was before
    the transform was cropped to the span the window reads.
    """
    n = x.shape[-1]
    filt = wavelet_filter(config.family, config.filter_number)
    levels = default_levels(n) if config.levels is None else config.levels
    desc = _extension(n, config.boundary)
    edits = _edit_for(config, spectrum, filt, levels, desc)
    pyr = ndwt_forward(extend_rows(x, desc), filt, levels)
    details = tuple(edit(pyr.detail(j)) for j, edit in enumerate(edits, start=1))
    return ndwt_average_basis(pyr.with_details(details))[..., desc.window()]


CROP_FILTERS = [(1, EXTREMAL_PHASE), (2, EXTREMAL_PHASE), (4, EXTREMAL_PHASE),
                (10, EXTREMAL_PHASE), (4, LEAST_ASYMMETRIC), (8, LEAST_ASYMMETRIC),
                (10, LEAST_ASYMMETRIC)]
# 291 of the 420 fits crop; at n = 64 the default EP4 span (274) is longer
# than the extension (256), so that one does not
CROP_LENGTHS = [64, 300, 1000, 1024, 2500]
CROP_METHODS = {
    "linear": EstimatorConfig(),
    "nonlinear_hard": EstimatorConfig(method=NONLINEAR),
    "nonlinear_soft": EstimatorConfig(method=NONLINEAR, policy=ThresholdPolicy(SOFT)),
}


def crop_series(n):
    t = np.linspace(0.0, 1.0, n)
    return np.sin(6.0 * t) + (0.5 + t) * np.random.default_rng(n).standard_normal(n)


@pytest.fixture(scope="module")
def crop_spectra():
    return {n: estimate_spectrum(crop_series(n)) for n in CROP_LENGTHS}


@pytest.mark.parametrize("depth", [1, 3, "default", "max"])
@pytest.mark.parametrize("number,family", CROP_FILTERS)
def test_cropped_fit_matches_uncropped(number, family, depth, crop_spectra):
    for n, (name, base) in itertools.product(CROP_LENGTHS, CROP_METHODS.items()):
        levels = {"default": None, "max": max_scales(n)}.get(depth, depth)
        config = replace(base, filter_number=number, family=family, levels=levels)
        x, sp = crop_series(n), crop_spectra[n]
        fit = estimate_trend(x, config, sp)
        assert np.array_equal(fit.values, uncropped_fit(x, config, sp)), (n, name)


@pytest.mark.parametrize("name", CROP_METHODS)
def test_cropped_block_of_rows_matches_uncropped(name, crop_spectra):
    n, config = 1000, CROP_METHODS[name]
    rows = np.stack([crop_series(n) * scale for scale in (0.5, 1.0, 2.0, -1.0, 3.0)])
    sp, filt, levels = crop_spectra[n], EP4, default_levels(n)
    desc = _visible_span(n, config, filt.length, levels)
    assert desc.extended_length < _extension(n, True).extended_length
    edits = _edit_for(config, sp, filt, levels, desc)
    fits = _edited_fit(rows, filt, NONDECIMATED, desc, edits)
    assert np.array_equal(fits, uncropped_fit(rows, replace(config, levels=levels), sp))


def test_cropped_span_sizes(monkeypatch):
    # EP4 at the default depth; a silent fallback to whole rows fails
    config = EstimatorConfig()
    assert _visible_span(65536, config, 8, 11).extended_length == 94_194
    assert _visible_span(16384, config, 8, 9).extended_length == 23_538
    span = _visible_span(1024, config, 8, 7)
    assert (span.extended_length, span.offset) == (2_802, 889)
    assert _block_rows(span, 7, NONDECIMATED) == 5
    assert _visible_span(64, config, 8, 4) == _extension(64, True)
    assert _visible_span(1024, replace(config, boundary=False), 8, 7) == _extension(1024, False)
    decimated = replace(config, transform=DECIMATED)
    assert _visible_span(1024, decimated, 8, 7) == _extension(1024, True)
    # every level computes only the columns the window reads: the level-j
    # details n + 7 (2**j - 1), each smooth the span less 7 (2**j - 1), and
    # each inverse step what the step above reads, down to the n outputs
    x = crop_series(1024)
    sp = estimate_spectrum(x)
    calls = filter_bank_calls(monkeypatch)
    estimate_trend(x, EstimatorConfig(method=NONLINEAR), sp)
    reads = [7 * (2**j - 1) for j in range(1, 8)]
    assert calls[:14:2] == [(1024 + r, 8) for r in reads]
    assert calls[1:14:2] == [(2_802 - r, 8) for r in reads]
    assert calls[14:] == [(1024 + r, 16) for r in [0, *reads[:-1]][::-1]]
    assert sum(cols * terms for cols, terms in calls) == 342_384  # 627,648 on whole spans


def uncropped_interval(fit, sp, reps, alpha, seed):
    """The normal bootstrap interval from one tlsw_sim and one uncropped fit per replicate."""
    n = fit.length
    smat = np.zeros((max_scales(n), n))
    smat[: sp.levels] = np.maximum(sp.S, 0.0)
    fits = np.stack([
        uncropped_fit(fit.values + tlsw_sim(spec=smat, seed=stream, family=sp.filter.family,
                                            filter_number=sp.filter.number), fit.config, sp)
        for stream in np.random.SeedSequence(seed).spawn(reps)
    ])
    half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * fits.std(axis=0, ddof=1)
    return fit.values - half, fit.values + half


# replicate blocks of 5 cropped rows at n = 1024 (reps = 41: a partial last
# block) and of 1 at n = 4096, whose span of 7,666 is under the extension of 16,384
@pytest.mark.parametrize("n,config", [
    (1024, EstimatorConfig()),
    (1024, EstimatorConfig(method=NONLINEAR)),
    (4096, EstimatorConfig(method=NONLINEAR, policy=ThresholdPolicy(SOFT))),
], ids=["linear_1024", "nonlinear_hard_1024", "nonlinear_soft_4096"])
def test_cropped_bootstrap_matches_uncropped(n, config):
    x = crop_series(n)
    sp = estimate_spectrum(x)
    fit = estimate_trend(x, config, spectrum=sp)
    desc = _visible_span(n, fit.config, fit.filter.length, fit.levels)
    assert desc.extended_length < _extension(n, True).extended_length
    assert _block_rows(desc, fit.levels, NONDECIMATED) == (5 if n == 1024 else 1)
    reps = 41 if n == 1024 else 21
    out = bootstrap_ci(fit, sp, reps=reps, alpha=0.1, ci_type=BOOT_NORMAL, seed=4)
    lo, hi = uncropped_interval(fit, sp, reps, 0.1, 4)
    assert np.array_equal(out.ci_lo, lo) and np.array_equal(out.ci_hi, hi)
