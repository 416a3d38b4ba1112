"""Spectrum estimation from the nondecimated wavelet periodogram.

The squared coefficients I[j, k] = d[j, k]**2 of a nondecimated transform
form the raw wavelet periodogram.  It is biased (its expectation mixes
scales through the A matrix, or a D matrix after differencing) and
inconsistent (chi-squared wiggle at every point), so the estimation
pipeline is: difference if asked, extend, transform, square, trim back to
the data window, smooth along time, then unmix the scales with the
operator inverse.  The periodogram records its filter, depth and
differencing, and those fix the operator (the A matrix, or the matching D
matrix), so correct_periodogram builds it itself and no mismatched one can
be passed in.  Negative corrected values are reported as-is; the
correction is a plain linear unmixing and clipping it silently would bias
everything downstream.

Smoothers: running mean, running median (rescaled so that the median of a
squared standard normal maps back to its mean), and an Epanechnikov
kernel.  All three shrink their window at the series edges and renormalise
the weights instead of reflecting data in, so boundary-extended values
never leak back into interior estimates.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .errors import (
    InvalidBinwidth,
    MatrixMismatch,
    ScaleTooDeep,
    SeriesTooShort,
    UnsupportedFilter,
    WavetrendError,
    check_flag,
    check_instance,
    check_integer,
)
from .filters import WaveletFilter, wavelet_filter
from .simulate import max_scales
from .transforms import (
    NO_EXTENSION,
    NONDECIMATED,
    TREND_REFLECT,
    _forward,
    _whole_rows,
    _window_reads,
    as_series,
    crop_extension,
    extend_rows,
    extension_descriptor,
)
from .wavelets import (
    CorrectionMatrix,
    a_matrix,
    autocorrelation_wavelets,
    check_diff,
    d_matrix,
    difference_series,
)

MEAN = "mean"
MEDIAN = "median"
EPAN = "epan"
NONE = "none"

_SMOOTHERS = (MEAN, MEDIAN, EPAN, NONE)

# E[chi2_1] / median[chi2_1]; rescales a running median of squared Gaussian
# coefficients onto the mean scale the correction matrices expect.
MEDIAN_FACTOR = 1.0 / NormalDist().inv_cdf(0.75) ** 2


@dataclass(frozen=True)
class SmootherConfig:
    """Time-direction smoother for periodogram rows; the none kind reads no binwidth."""

    kind: str = MEAN
    binwidth: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SMOOTHERS:
            raise InvalidBinwidth(f"unknown smoother kind {self.kind!r}")


@dataclass(frozen=True)
class Periodogram:
    """Squared nondecimated coefficients, optionally smoothed.

    raw and smoothed are (levels, n) with column k aligned to time k of the
    input series.  diff is the (lag, order) differencing applied before the
    transform, None for none; under differencing the shorter squared series
    is re-embedded at a centred offset with edge columns replicated, so the
    shape stays (levels, n).
    """

    raw: np.ndarray = field(repr=False)
    filter: WaveletFilter
    smoothed: np.ndarray | None = field(repr=False, default=None)
    smoother: SmootherConfig | None = None
    diff: tuple[int, int] | None = None
    boundary: bool = True

    @property
    def levels(self) -> int:
        return self.raw.shape[0]

    def values(self) -> np.ndarray:
        return self.raw if self.smoothed is None else self.smoothed


@dataclass(frozen=True)
class SpectrumEstimate:
    """Corrected spectrum matrix with full provenance.

    S[j - 1, k] estimates the spectrum at scale j and time k; negative
    entries are possible (no estimator here clips them or sets floored).
    The depth and the filter are the periodogram's.
    """

    S: np.ndarray = field(repr=False)
    periodogram: Periodogram
    correction: CorrectionMatrix
    binwidth_clamped: bool = False
    floored: bool = False

    @property
    def levels(self) -> int:
        return self.periodogram.levels

    @property
    def filter(self) -> WaveletFilter:
        return self.periodogram.filter

    @property
    def length(self) -> int:
        return self.S.shape[1]


def default_levels(n: int) -> int:
    """Analysis depth used when the caller does not choose one."""
    return max(1, int(math.floor(0.7 * math.log2(n))))


def default_binwidth(n: int) -> tuple[int, bool]:
    """(binwidth, clamped): odd floor(6 sqrt(n)), capped at n // 2."""
    b = int(math.floor(6.0 * math.sqrt(n)))
    if b % 2 == 0:
        b += 1
    cap = n // 2
    if cap % 2 == 0:
        cap -= 1
    clamped = b > cap
    b = min(b, cap)
    return max(b, 3), clamped


def _check_finite(
    values: np.ndarray,
    what: str,
    problem: str = "of this series overflows float64; rescale the series "
    "(divide it by its standard deviation)",
) -> None:
    """Raise unless every value is finite; by default the problem named is overflow."""
    if not np.isfinite(values).all():
        raise WavetrendError(f"the {what} {problem}")


def wavelet_periodogram(
    x: np.ndarray,
    filt: WaveletFilter,
    levels: int,
    boundary: bool = True,
    diff: tuple[int, int] | None = None,
) -> Periodogram:
    """Raw wavelet periodogram of a series, aligned to the data window.

    With boundary on, the series is reflected to a dyadic length before the
    transform and the squared coefficients are trimmed back to the original
    window; with boundary off the transform is circular on the series
    itself.  diff = (lag, order) differences first (normalised so the
    matching difference operator corrects the result exactly).  Squares
    that overflow float64 (a series of magnitude about 1e154 or more)
    raise WavetrendError.
    """
    x = as_series(x, 2)
    n = x.size
    if not isinstance(filt, WaveletFilter):
        raise UnsupportedFilter(f"expected a WaveletFilter, got {filt!r}")
    levels = check_integer(levels, "levels", 1, max_scales(n), ScaleTooDeep)
    boundary = check_flag(boundary, "boundary")
    # only diff=None means no differencing; every other pair is checked on
    # the series itself: the reflected extension is long enough for any lag,
    # but the data window cut from it would not be
    lag, order = (0, 0) if diff is None else check_diff(diff, n)
    lost = lag * order
    if diff is not None and not boundary and n - lost < 2**levels:
        raise SeriesTooShort(
            f"differencing at lag {lag}, order {order} leaves {n - lost} of {n} "
            f"observations; {levels} levels need at least {2**levels}"
        )
    # Extend before differencing: the reflected series differences smoothly
    # across the seam, whereas reflecting an already differenced (noise
    # dominated) series injects a level jump that inflates boundary
    # coefficients several-fold.  Each level computes only what the window
    # reads (details on the window, smooths as wide as the deeper levels
    # read), from a span of the extension lost samples longer than the
    # transform reads; whole rows when unextended or the span does not fit.
    desc = extension_descriptor(n, TREND_REFLECT if boundary else NO_EXTENSION)
    before, after, plan = _window_reads(filt.length, levels, n, False)
    span = crop_extension(desc, before + lost // 2, after + lost - lost // 2)
    y = extend_rows(x, span)
    if order:
        y = difference_series(y, lag, order)
    if span == desc:
        plan = _whole_rows(NONDECIMATED, y.shape[-1], levels)
    start = span.offset - lost // 2 if boundary else 0
    pyr = _forward(y, filt, levels, NONDECIMATED, plan)
    with np.errstate(over="ignore"):  # reported as one error just below
        raw = np.stack([
            pyr.detail(j)[start - columns.start :][:n]
            for j, (columns, _, _) in enumerate(plan, start=1)
        ]) ** 2
    _check_finite(raw, "periodogram")
    if lost and not boundary:
        # centre the shorter rows in n columns, edge columns replicated
        raw = np.pad(raw, ((0, 0), (lost // 2, lost - lost // 2)), mode="edge")
    return Periodogram(
        raw=raw, filter=filt, diff=None if diff is None else (lag, order), boundary=boundary
    )


def _running_median(row: np.ndarray, binwidth: int) -> np.ndarray:
    """np.median of each edge-shrunk window, kept as one sorted list (Haerdle & Steiger 1995)."""
    values = row.tolist()
    n, half = len(values), binwidth // 2
    window = sorted(values[:half])
    out = []
    for k in range(n):
        if k + half < n:
            insort(window, values[k + half])
        if k > half:
            del window[bisect_left(window, values[k - half - 1])]
        mid, odd = divmod(len(window), 2)
        out.append(window[mid] if odd else (window[mid - 1] + window[mid]) / 2)
    return np.array(out)


def _kernel_smooth(raw: np.ndarray, binwidth: int, degree: int) -> np.ndarray:
    """Running mean (degree 0) or Epanechnikov kernel (degree 2) of each row.

    Block prefix/suffix sums (van Herk 1992; Gil & Werman 1993): rows padded
    by h = binwidth // 2 zeros are cut into blocks of binwidth, so a window
    is a block suffix plus the next block's prefix.  Moments sum x * u**i in
    the offset u from that seam (|u| <= binwidth) carry the kernel
    (h + 1)**2 - (u - c)**2 about the window centre c, so nothing cancels
    over the row.  A row of ones gives the in-window weight total of the
    shrunk edge windows.  cumsum and elementwise arithmetic: O(n), no BLAS.
    """
    levels, n = raw.shape
    h = binwidth // 2
    blocks = np.zeros((levels + 1, -(-n // binwidth) + 1, binwidth))
    padded = blocks.reshape(levels + 1, -1)
    padded[:-1, h : h + n] = raw
    padded[-1, h : h + n] = 1.0
    c = np.arange(n) % binwidth + h - binwidth  # window centre, from its seam
    coefficients = [1.0] if degree == 0 else [(h + 1) ** 2 - c**2, 2.0 * c, -1.0]
    p = np.arange(binwidth, dtype=float)
    prefix = np.empty_like(blocks)
    for i, coefficient in enumerate(coefficients):
        # exclusive prefix sums: a window starting on a seam takes none of the next block
        prefix[..., 0] = 0.0
        np.multiply(blocks[..., :-1], p[:-1] ** i, out=prefix[..., 1:])
        np.cumsum(prefix, axis=-1, out=prefix)
        suffix = blocks if i == degree else blocks.copy()  # the last moment reuses the blocks
        suffix *= (p - binwidth) ** i
        np.cumsum(suffix[..., ::-1], axis=-1, out=suffix[..., ::-1])
        suffix[:, :-1] += prefix[:, 1:]  # the window starting at each position
        window = suffix.reshape(levels + 1, -1)[:, :n]
        window *= coefficient
        sums = window if i == 0 else np.add(sums, window, out=sums)
    return sums[:-1] / sums[-1]


def smooth_periodogram(pgram: Periodogram, config: SmootherConfig) -> Periodogram:
    """Smooth each periodogram row along time; a non-finite one is refused."""
    check_instance(pgram, Periodogram, "periodogram", MatrixMismatch)
    check_instance(config, SmootherConfig, "smoother config", InvalidBinwidth)
    raw = pgram.raw
    _check_finite(raw, "periodogram", "holds NaN or infinite values and cannot be smoothed")
    if config.kind == NONE:
        return replace(pgram, smoothed=raw.copy(), smoother=config)
    message = f"binwidth must be odd and within [3, {raw.shape[1]}], got {config.binwidth}"
    b = check_integer(config.binwidth, "binwidth", 3, raw.shape[1], InvalidBinwidth, message)
    if b % 2 == 0:
        raise InvalidBinwidth(message)
    with np.errstate(over="ignore", invalid="ignore"):  # correct_periodogram reports it
        if config.kind == MEDIAN:
            smoothed = np.stack([_running_median(row, b) for row in raw]) * MEDIAN_FACTOR
        else:
            smoothed = _kernel_smooth(raw, b, 0 if config.kind == MEAN else 2)
    return replace(pgram, smoothed=smoothed, smoother=config)


def correct_periodogram(pgram: Periodogram) -> SpectrumEstimate:
    """Unmix periodogram scales with the inverse of its own bias operator.

    A finite periodogram can still overflow in the smoothing sums or the
    unmixing; that raises WavetrendError instead of returning non-finite S.
    """
    check_instance(pgram, Periodogram, "periodogram", MatrixMismatch)
    acw = autocorrelation_wavelets(pgram.filter, pgram.levels)
    if pgram.diff is None:
        correction = a_matrix(acw, pgram.levels)
    else:
        correction = d_matrix(acw, pgram.levels, *pgram.diff)
    # einsum, not BLAS: a BLAS product's sums change with its thread count
    with np.errstate(over="ignore", invalid="ignore"):  # reported as one error just below
        S = np.einsum("ij,jt->it", correction.inverse, pgram.values())
    _check_finite(S, "spectrum")
    return SpectrumEstimate(S=S, periodogram=pgram, correction=correction)


def estimate_spectrum(
    x: np.ndarray,
    filter_number: int = 4,
    family: str = "extremal_phase",
    levels: int | None = None,
    smoother: str = MEAN,
    binwidth: int | None = None,
    boundary: bool = True,
    diff: tuple[int, int] | None = None,
) -> SpectrumEstimate:
    """Full spectrum pipeline with the standard defaults.

    levels defaults to floor(0.7 log2 n) and, for a smoother that runs,
    binwidth to the odd value near 6 sqrt(n) capped at n / 2.
    """
    x = as_series(x, 16)
    n = x.size
    filt = wavelet_filter(family, filter_number)
    if levels is None:
        levels = default_levels(n)
    clamped = False
    if binwidth is None and smoother != NONE:
        binwidth, clamped = default_binwidth(n)
    pgram = wavelet_periodogram(x, filt, levels, boundary=boundary, diff=diff)
    pgram = smooth_periodogram(pgram, SmootherConfig(kind=smoother, binwidth=binwidth))
    return replace(correct_periodogram(pgram), binwidth_clamped=clamped)
