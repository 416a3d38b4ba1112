"""Trend estimators and pointwise confidence intervals.

Two estimators share one mechanism: transform, edit coefficients, invert.
The linear estimator zeroes every detail coefficient whose wavelet support
sits entirely inside the original data window and keeps the rest (boundary
details and all scaling coefficients carry the trend).  The nonlinear
estimator instead thresholds every detail coefficient against its own
estimated standard deviation, which adapts to inhomogeneous trends at the
price of needing a spectrum estimate first.  It thresholds with the
spectrum floored at zero: a negative estimate would zero the threshold in
patches and let raw noise through.

estimate_trend(x, EstimatorConfig(...), spectrum) is the one fit.  Every
fit takes its edits from _edit_for, the one place that dispatches on the
method: one edit per level, built once as data (a mask of the details
_inside the window, or a row of thresholds), so one list of edits serves
one fit or many blocks of fits.

A nondecimated fit with boundary handling computes, at every level, only
the columns its data window reads (_plan): the details the synthesis
reads, the smooths it and the next level read, and each inverse step what
the step above reads, down to the window, all within L_J - 1 samples of
the window (_visible_span; details on 1,031 to 1,913 of 2,802 columns at
n = 1024 and the default depth).  The stride-1 transform pair is exactly
shift-equivariant, and the edits are built on the same columns, so the
fit is bit-identical to one over the whole extension.  The decimated
transform is shift-equivariant only by 2**J and the unextended one wraps
by design, so both run on their whole rows.

Confidence intervals come in two flavours.  The analytic interval
propagates the estimated local autocovariance through the linear
estimator in factored form, R = U^T V with one row of U and V per kept
coefficient whose support meets the data window (K of them, 78 to 122
with the default filter), so the n x n operator is never built: the rows
are one inverted template per level, shifted by 2**j per coefficient.
It is restricted to the decimated linear estimator, whose edit is data
independent and whose transform is orthogonal.  The bootstrap interval
resimulates noise from the estimated spectrum around the fitted trend and
re-runs the identical estimator, which works for any configuration.  It
builds the noise plan and the edits once, then fits the replicates in
blocks of _block_rows series; the interval is byte-identical to one
tlsw_sim and one estimate_trend per replicate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import partial
from statistics import NormalDist

import numpy as np

from .errors import (
    MatrixMismatch,
    MethodMismatch,
    MissingSpectrum,
    NegativeThreshold,
    ScaleTooDeep,
    TooFewReps,
    WavetrendError,
    as_floats,
    check_flag,
    check_instance,
    check_integer,
)
from .filters import EXTREMAL_PHASE, WaveletFilter, wavelet_filter
from .lacv import LacvEstimate
from .simulate import NoisePlan, check_seed
from .spectrum import SpectrumEstimate, default_levels
from .transforms import (
    _BLOCK_ELEMENTS,
    DECIMATED,
    NO_EXTENSION,
    NONDECIMATED,
    SYMMETRIC_TRIPLE,
    CoefficientPyramid,
    ExtensionDescriptor,
    _forward,
    _inverse,
    _whole_rows,
    _window_reads,
    as_series,
    crop_extension,
    detail_support,
    dwt_inverse,
    extend_adjoint,
    extend_rows,
    extension_descriptor,
)
from .wavelets import autocorrelation_wavelets, cross_a_matrix

LINEAR = "linear"
NONLINEAR = "nonlinear"
HARD = "hard"
SOFT = "soft"
ANALYTIC = "analytic"
BOOT_NORMAL = "boot_normal"
BOOT_PERCENTILE = "boot_percentile"
CI_NONE = "none"


@dataclass(frozen=True)
class ThresholdPolicy:
    """Shrinkage rule and threshold scale for the nonlinear estimator.

    With the normal assumption the threshold is sigma * sqrt(2 ln n); without
    it the heavier sigma * ln n guards against fat-tailed innovations.
    """

    kind: str = HARD
    normal_assumption: bool = True

    def __post_init__(self) -> None:
        if self.kind not in (HARD, SOFT):
            raise MethodMismatch(f"unknown threshold kind {self.kind!r}")
        flag = check_flag(self.normal_assumption, "normal_assumption")
        object.__setattr__(self, "normal_assumption", flag)

    def scale(self, n: int) -> float:
        if self.normal_assumption:
            return math.sqrt(2.0 * math.log(n))
        return math.log(n)


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything needed to rerun a trend estimate on new data."""

    method: str = LINEAR
    transform: str = NONDECIMATED
    boundary: bool = True
    levels: int | None = None
    filter_number: int = 4
    family: str = EXTREMAL_PHASE
    policy: ThresholdPolicy = ThresholdPolicy()

    def __post_init__(self) -> None:
        if self.method not in (LINEAR, NONLINEAR):
            raise MethodMismatch(f"unknown trend method {self.method!r}")
        if self.transform not in (DECIMATED, NONDECIMATED):
            raise MethodMismatch(f"unknown trend transform {self.transform!r}")
        check_instance(self.policy, ThresholdPolicy, "policy", MethodMismatch)
        if self.levels is not None:
            levels = check_integer(self.levels, "levels", 1, error=ScaleTooDeep)
            object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "boundary", check_flag(self.boundary, "boundary"))
        number = wavelet_filter(self.family, self.filter_number).number
        object.__setattr__(self, "filter_number", number)


@dataclass(frozen=True)
class TrendEstimate:
    """Fitted trend with optional pointwise interval; filter and levels come from config."""

    values: np.ndarray = field(repr=False)
    config: EstimatorConfig
    ci_lo: np.ndarray | None = field(repr=False, default=None)
    ci_hi: np.ndarray | None = field(repr=False, default=None)
    ci_type: str = CI_NONE
    alpha: float | None = None
    reps: int | None = None

    @property
    def filter(self) -> WaveletFilter:
        return wavelet_filter(self.config.family, self.config.filter_number)

    @property
    def levels(self) -> int:
        return self.config.levels

    @property
    def length(self) -> int:
        return self.values.size


def threshold(values, lam, kind: str = HARD):
    """Hard or soft shrinkage; lam may vary per coefficient."""
    values = as_floats(values, "coefficients")
    lam = as_floats(lam, "thresholds")
    if np.any(lam < 0):
        raise NegativeThreshold("threshold must be nonnegative")
    keep = np.abs(values) > lam
    if kind == HARD:
        out = np.where(keep, values, 0.0)
    elif kind == SOFT:
        out = np.where(keep, np.sign(values) * (np.abs(values) - lam), 0.0)
    else:
        raise MethodMismatch(f"unknown threshold kind {kind!r}")
    if out.ndim == 0:
        return float(out)
    return out


def _supports(
    mode: str, filter_length: int, level: int, columns: range, desc: ExtensionDescriptor
) -> tuple[np.ndarray, int]:
    """(start, length) of the level-j detail coefficients in columns of a row
    placed as desc says; start is taken mod the row, so a support may run
    past its end."""
    index = np.arange(columns.start, columns.stop)
    start, length = detail_support(mode, filter_length, level, index)
    return start % desc.extended_length, length


def _inside(start: np.ndarray, length: int, desc: ExtensionDescriptor) -> np.ndarray:
    """True where a support lies inside the data window; all True unextended."""
    if desc.original_length == desc.extended_length:
        return np.ones(start.size, dtype=bool)
    return (start >= desc.offset) & (start + length <= desc.offset + desc.original_length)


def _extension(n: int, boundary: bool) -> ExtensionDescriptor:
    """Where a length-n series sits in the array the trend estimators transform."""
    return extension_descriptor(n, SYMMETRIC_TRIPLE if boundary else NO_EXTENSION)


def _visible_span(
    n: int, config: EstimatorConfig, filter_length: int, levels: int
) -> ExtensionDescriptor:
    """_extension of a config's fit, for a nondecimated fit cropped to the
    span its data window reads (_window_reads; L_J - 1 samples each side)."""
    desc = _extension(n, config.boundary)
    if config.transform == DECIMATED:
        return desc
    return crop_extension(desc, *_window_reads(filter_length, levels, n, True)[:2])


def _plan(desc: ExtensionDescriptor, transform: str, filter_length: int, levels: int) -> tuple:
    """The columns each level of a fit on a row placed as desc says computes:
    what the window reads on a span crop_extension cut, whole rows otherwise."""
    if transform == NONDECIMATED and desc != extension_descriptor(desc.original_length,
                                                                  desc.policy):
        return _window_reads(filter_length, levels, desc.original_length, True)[2]
    return _whole_rows(transform, desc.extended_length, levels)


def _edited_fit(
    x: np.ndarray, filt: WaveletFilter, transform: str, desc: ExtensionDescriptor, edits
) -> np.ndarray:
    """Extend, transform, edit every detail row, invert, cut back to the data.

    x holds one series, or a batch of series along its last axis; desc is
    _visible_span of the series length.  edits[j - 1] maps the level-j
    detail rows to their replacement, so there are as many levels as edits.
    """
    plan = _plan(desc, transform, filt.length, len(edits))
    pyr = _forward(extend_rows(x, desc), filt, len(edits), transform, plan)
    details = tuple(edit(pyr.detail(j)) for j, edit in enumerate(edits, start=1))
    fit = _inverse(pyr.with_details(details), transform, "_forward", plan)
    start = desc.offset - plan[0][2].start
    # a copy, so the fit does not keep a whole extended reconstruction alive
    return fit[..., start : start + desc.original_length].copy()


def _edit_for(
    config: EstimatorConfig,
    spectrum: SpectrumEstimate | None,
    filt: WaveletFilter,
    levels: int,
    desc: ExtensionDescriptor,
) -> list:
    """config's estimator as one edit per level, for a series placed as desc
    says, on the detail columns each level computes (_plan).

    Linear: zero the details _inside the data window.  Nonlinear: threshold
    each detail at lambda = policy.scale(n) * sigma[j - 1, t], with sigma
    from variance_matrix of the spectrum floored at zero and t the
    in-window time nearest the coefficient's centre (its index when
    nondecimated).  The masks and lambda rows are built here, once, so one
    list of edits serves one fit or many blocks of fits.
    """
    mode = config.transform
    columns = [cols for cols, _, _ in _plan(desc, mode, filt.length, levels)]
    if config.method == LINEAR:
        return [
            partial(np.where, _inside(*_supports(mode, filt.length, j, cols, desc), desc), 0.0)
            for j, cols in enumerate(columns, start=1)
        ]
    if not isinstance(spectrum, SpectrumEstimate):
        raise MissingSpectrum("nonlinear trend needs a spectrum estimate")
    n = desc.original_length
    if spectrum.length != n:
        raise MatrixMismatch(f"spectrum covers {spectrum.length} points, series has {n}")
    floored = replace(spectrum, S=np.maximum(spectrum.S, 0.0))
    sigma = np.sqrt(variance_matrix(floored, filt, levels))
    lam_scale = config.policy.scale(n)
    edits = []
    for j, cols in enumerate(columns, start=1):
        if mode == DECIMATED:
            start, length = _supports(mode, filt.length, j, cols, desc)
            centres = start + (length - 1) // 2
        else:
            centres = np.arange(cols.start, cols.stop)
        lam = lam_scale * sigma[j - 1, np.clip(centres - desc.offset, 0, n - 1)]
        edits.append(partial(threshold, lam=lam, kind=config.policy.kind))
    return edits


def estimate_trend(
    x: np.ndarray,
    config: EstimatorConfig,
    spectrum: SpectrumEstimate | None = None,
) -> TrendEstimate:
    """Run the estimator a config describes; the nonlinear one needs a spectrum.

    The linear estimator keeps the boundary details and the scaling
    coefficients; its edit is data independent, which is what makes the
    analytic interval possible.  The nonlinear one thresholds every detail
    at its own noise level under the spectrum, floored at zero.  The
    estimate carries config resolved: levels filled in with the default
    depth when None, the filter family canonical, everything else as given.
    """
    check_instance(config, EstimatorConfig, "config", MethodMismatch)
    filt = wavelet_filter(config.family, config.filter_number)
    x = as_series(x, 2)
    levels = default_levels(x.size) if config.levels is None else config.levels
    desc = _visible_span(x.size, config, filt.length, levels)
    edits = _edit_for(config, spectrum, filt, levels, desc)
    fitted = _edited_fit(x, filt, config.transform, desc, edits)
    return TrendEstimate(fitted, replace(config, levels=levels, family=filt.family))


def variance_matrix(
    spectrum: SpectrumEstimate,
    analysis: WaveletFilter,
    levels: int,
) -> np.ndarray:
    """sigma^2[r - 1, t]: variance of the scale-r analysis coefficient at t.

    Rows pair the analysis wavelet with the generating wavelet of the
    spectrum through their autocorrelation cross products; negative mixes
    from negative spectrum estimates are floored at zero.
    """
    check_instance(spectrum, SpectrumEstimate, "spectrum", MatrixMismatch)
    levels = check_integer(levels, "levels", 1, error=ScaleTooDeep)
    depth = max(levels, spectrum.levels)
    cross = cross_a_matrix(
        autocorrelation_wavelets(spectrum.filter, depth),
        autocorrelation_wavelets(analysis, depth),
        depth,
    )[:levels, : spectrum.levels]
    # einsum, not BLAS: a BLAS product's sums change with its thread count
    return np.maximum(np.einsum("ij,jt->it", cross, spectrum.S), 0.0)


_ANALYTIC_MAX_N = 8192


def _block_rows(desc: ExtensionDescriptor, levels: int, transform: str) -> int:
    """Series per block pushed through _edited_fit by bootstrap_ci.

    Counts each series' transformed row plus its pyramid: about one row
    decimated, levels + 1 nondecimated.  32 rows at decimated extended
    length 2048, 5 at the nondecimated span of 2,802 that n = 1024 has with
    7 levels; at least 1.
    """
    per_row = desc.extended_length * (2 if transform == DECIMATED else levels + 2)
    return max(1, _BLOCK_ELEMENTS // per_row)


def _check_alpha(alpha: float) -> None:
    """alpha is a real number (not a bool) in (0, 1); NaN is refused too."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not 0.0 < alpha < 1.0:
        raise WavetrendError(f"significance level must lie in (0, 1), got {alpha!r}")


def _check_lengths(trend: TrendEstimate, what: str, covered: int) -> None:
    if trend.length != covered:
        raise MatrixMismatch(f"trend has {trend.length} points, {what} {covered}")


def _operator_factors(trend: TrendEstimate) -> tuple[np.ndarray, np.ndarray]:
    """(U, V), both K x n, with trend.values = U.T @ V @ x up to rounding.

    The decimated linear fit is P W^T M W E x: E extends, W is the
    orthogonal DWT, M keeps the scaling and boundary detail coefficients
    and P cuts out the data window.  W^T M W sums b b^T over the basis rows
    b of the kept coefficients, and only a b whose support meets the
    window reaches P.  The periodic DWT is shift-equivariant by 2**j at
    level j (Percival & Walden 2000, ch. 4), so row k of level j is row 0
    circularly shifted by k 2**j, with the same multiply-adds: one
    dwt_inverse of levels + 1 unit pyramids gives a template per depth,
    and the rows B gather shifted templates.  U = B on the window, V = E^T B.
    """
    filt, levels = trend.filter, trend.levels
    desc = _extension(trend.length, trend.config.boundary)
    total = desc.extended_length
    depths = [*range(1, levels + 1), levels]  # detail rows 1..levels, then scaling
    units = [np.zeros((levels + 1, total >> j)) for j in depths]
    shifts = []
    for i, (j, coeffs) in enumerate(zip(depths, units)):
        coeffs[i, 0] = 1.0
        start, length = _supports(DECIMATED, filt.length, j, range(total >> j), desc)
        # meets the window, or its copy one period on, which a wrapping support reaches
        keep = (start < desc.offset + desc.original_length) & (start + length > desc.offset)
        keep |= start + length > desc.offset + total
        if i < levels:
            keep &= ~_inside(start, length, desc)
        # row s of a template's windows is the template rolled left by s
        shifts.append(-(np.flatnonzero(keep) << j) % total)
    templates = dwt_inverse(CoefficientPyramid(DECIMATED, filt, tuple(units[:-1]), units[-1]))
    depth = np.repeat(np.arange(levels + 1), [s.size for s in shifts])
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(templates, 2), total, axis=-1)
    basis = windows[depth, np.concatenate(shifts)]  # gathers K rows, never all the windows
    del windows  # and the tiled templates under it
    v = extend_adjoint(basis, desc)  # before U, so its scratch is freed first
    # a copy that frees the basis; unextended, U and V share it without one
    return np.ascontiguousarray(basis[:, desc.window()]), v


def analytic_ci(
    trend: TrendEstimate,
    lacv: LacvEstimate,
    alpha: float = 0.05,
) -> TrendEstimate:
    """Gaussian interval from the factored linear operator.

    Var(T_hat_t) = sum_{s,u} r_ts r_tu c(u/n, |u - s|) with the
    autocovariance read at the later time of each pair and truncated at the
    estimate's lag_max.  R = U^T V comes from _operator_factors with K rows
    each (78 at n = 512, 122 at n = 8192 with the default filter), so R is
    never built: G = V C V^T with C[s, t] = w_d c(t, d) for d = t - s in
    0..lag_max (w_0 = 1, else 2), and var_t = u_t^T G u_t, with u_t column t
    of U.  Y = V C is one einsum over a window of V padded in front with
    lag_max zero columns, Y[k, t] = sum_d V[k, t - d] w_d c(t, d), which
    reads each lacv row where it is stored; then G = Y V^T, and the
    quadratic form is G U summed against U column by column.  Every
    reduction is an einsum or an elementwise sum, never BLAS, so the
    interval does not depend on the BLAS thread count.
    Only the decimated linear estimator is supported; for anything else use
    the bootstrap.  The trend and the autocovariance must cover the same
    points.
    """
    check_instance(trend, TrendEstimate, "trend", MatrixMismatch)
    check_instance(lacv, LacvEstimate, "autocovariance", MatrixMismatch)
    _check_alpha(alpha)
    if trend.config.method != LINEAR or trend.config.transform != DECIMATED:
        raise MethodMismatch("analytic interval needs the linear decimated estimator")
    c, n = lacv.lacv, trend.length
    _check_lengths(trend, "autocovariance", c.shape[0])
    if n > _ANALYTIC_MAX_N:
        raise MethodMismatch(
            f"analytic interval refused for n = {n} > {_ANALYTIC_MAX_N}; "
            "use bootstrap_ci instead"
        )
    weighted = 2.0 * c  # w_d folded in once; scaling by 2 is exact
    weighted[:, 0] = c[:, 0]
    u, v = _operator_factors(trend)
    v_pad = np.pad(v, ((0, 0), (lacv.lag_max, 0)))
    # behind[k, t, d] = V[k, t - d], zero before the window: each lacv row read in place
    behind = np.lib.stride_tricks.sliding_window_view(v_pad, lacv.lag_max + 1, axis=-1)[..., ::-1]
    y = np.einsum("ktd,td->kt", behind, weighted)
    g = np.einsum("kt,lt->kl", y, v)
    var = (np.einsum("kl,lt->kt", g, u) * u).sum(axis=0)
    half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * np.sqrt(np.maximum(var, 0.0))
    return replace(
        trend,
        ci_lo=trend.values - half,
        ci_hi=trend.values + half,
        ci_type=ANALYTIC,
        alpha=alpha,
    )


def bootstrap_ci(
    trend: TrendEstimate,
    spectrum: SpectrumEstimate,
    reps: int = 200,
    alpha: float = 0.05,
    ci_type: str = BOOT_PERCENTILE,
    seed: int | None = 0,
) -> TrendEstimate:
    """Interval from resimulated noise around the fitted trend.

    Replicate b adds simulated noise (spectrum floored at zero) to the
    fitted trend, re-estimates with the identical config, and the pointwise
    spread of the re-estimates forms the interval.  Replicate streams are
    the reps children spawned from SeedSequence(seed), so they are
    independent across replicates and across seeds and do not depend on
    evaluation order; seed=None means seed 0, so the interval is the same
    on every run.  The spectrum is not re-estimated per replicate.

    What no replicate changes is built once: the NoisePlan of the spectrum
    and the estimator's edits (for the nonlinear estimator, its thresholds).
    Replicates are then drawn (one NoisePlan.draw) and fitted (one batched
    transform pair) in blocks of _block_rows series.  Every replicate still
    draws from its own stream in tlsw_sim's order, and every row of a block
    gets the arithmetic of a one-stream draw and a one-row fit, so the
    interval is byte-identical to one tlsw_sim and one estimate_trend per
    replicate.
    """
    check_instance(trend, TrendEstimate, "trend", MatrixMismatch)
    _check_alpha(alpha)
    if ci_type not in (BOOT_NORMAL, BOOT_PERCENTILE):
        raise MethodMismatch(f"unknown bootstrap interval type {ci_type!r}")
    needed = max(20, math.ceil(2.0 / alpha))
    message = f"need at least {needed} replicates for alpha = {alpha}"
    reps = check_integer(reps, "reps", needed, error=TooFewReps, message=message)
    if spectrum is None or not isinstance(spectrum, SpectrumEstimate):
        raise MissingSpectrum("bootstrap needs a spectrum estimate")
    _check_lengths(trend, "spectrum", spectrum.length)
    streams = np.random.SeedSequence(check_seed(seed) or 0).spawn(reps)
    n, config, filt, levels = trend.length, trend.config, trend.filter, trend.levels
    floored = dict(enumerate(np.maximum(spectrum.S, 0.0), start=1))  # deeper scales get zeros
    plan = NoisePlan.build(floored, n, spectrum.filter)
    desc = _visible_span(n, config, filt.length, levels)
    edits = _edit_for(config, spectrum, filt, levels, desc)
    block = _block_rows(desc, levels, config.transform)
    fits = np.empty((reps, n))
    for s in range(0, reps, block):
        noise = plan.draw([np.random.default_rng(b) for b in streams[s : s + block]])
        fits[s : s + len(noise)] = _edited_fit(
            trend.values + noise, filt, config.transform, desc, edits
        )
    if ci_type == BOOT_NORMAL:
        half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * fits.std(axis=0, ddof=1)
        lo, hi = trend.values - half, trend.values + half
    else:
        lo = np.quantile(fits, alpha / 2.0, axis=0)
        hi = np.quantile(fits, 1.0 - alpha / 2.0, axis=0)
    return replace(
        trend, ci_lo=lo, ci_hi=hi, ci_type=ci_type, alpha=alpha, reps=reps
    )
