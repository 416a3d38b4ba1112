"""Discrete wavelet vectors, autocorrelation wavelets and correction matrices.

The discrete wavelets are built by the standard two-scale cascade

    psi_1 = g,            psi_{j+1}[l] = sum_k h[l - 2k] psi_j[k],

giving vectors of length L_j = (2**j - 1)(N - 1) + 1 for an N-tap filter.
Their autocorrelations Psi_j(tau) = sum_t psi_j(t) psi_j(t + tau) drive both
the local autocovariance and the periodogram bias correction: the raw
wavelet periodogram of a process with spectrum S satisfies E(I_j) ~ (A S)_j
with A[j, l] = sum_tau Psi_j(tau) Psi_l(tau), so premultiplying by inv(A)
debiases it.  When the series is differenced before the transform the same
role is played by the difference-adjusted matrices built in d_matrix.
Either comes as a CorrectionMatrix (operator, inverse, condition number);
spectrum.correct_periodogram picks which from the periodogram it corrects.

Psi_j has a two-scale relation of its own (Eckley & Nason 2005):
Psi_1 = g * g~ and Psi_{j+1} = upsample(Psi_j) * (h * h~), with *
convolution, ~ time reversal and upsample putting zeros between taps, so no
kernel has more than 2N - 1 taps.  Every operator sums products of rows of
one zero-padded Psi table over tau.  No such sum may go through BLAS (``@``,
``np.dot``, a long ``np.correlate``): OpenBLAS splits long dot products
across threads, so their bits depend on the thread count.  _overlaps runs
``np.einsum`` (no ``optimize``, no BLAS) over blocks of _TAU_BLOCK lags
and adds the block sums pairwise, which keeps the rounding error small.

Differencing normalisation: difference_series divides a first difference at
any lag by sqrt(2) and the second difference by sqrt(6) (the root of the sum
of squared difference weights).  Under that convention the bias operator for
a lag-p first difference is exactly A - A^p, where
A^p[j, l] = sum_tau Psi_j(tau) Psi_l(tau - p), and for the second difference
it is A - (4/3) A^1 + (1/3) A^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDiffSpec,
    ScaleTooDeep,
    SeriesTooShort,
    SingularMatrix,
    as_floats,
    check_integer,
)
from .filters import WaveletFilter

__all__ = [
    "AutocorrelationWavelet",
    "CorrectionMatrix",
    "discrete_wavelets",
    "autocorrelation_wavelets",
    "a_matrix",
    "lagged_a_matrix",
    "d_matrix",
    "cross_a_matrix",
    "difference_series",
    "support_length",
]

COND_LIMIT = 1e12

# Lags per einsum block of _overlaps.
_TAU_BLOCK = 64


def support_length(filter_length: int, level: int) -> int:
    """Number of taps of the level-j discrete wavelet."""
    return (2**level - 1) * (filter_length - 1) + 1


@dataclass(frozen=True)
class AutocorrelationWavelet:
    """Autocorrelations Psi_j(tau) stored symmetrically around tau = 0.

    values[j - 1] has length 2 L_j - 1 with tau = 0 at the centre index.
    """

    filter: WaveletFilter
    values: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def levels(self) -> int:
        return len(self.values)

    def radius(self, level: int) -> int:
        return (self.values[level - 1].size - 1) // 2

    def window(self, levels: int, radius: int) -> np.ndarray:
        """Rows Psi_1..Psi_levels at tau = -radius..radius, cropped or zero padded."""
        out = np.zeros((levels, 2 * radius + 1))
        for j, row in enumerate(self.values[:levels]):
            c = (row.size - 1) // 2
            k = min(c, radius)
            out[j, radius - k : radius + k + 1] = row[c - k : c + k + 1]
        return out


@dataclass(frozen=True)
class CorrectionMatrix:
    """A periodogram bias operator, its inverse and its condition number."""

    matrix: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(repr=False)
    cond: float


def _cascade(first: np.ndarray, kernel: np.ndarray, levels: int) -> tuple[np.ndarray, ...]:
    """first, then each row upsampled and convolved with kernel, levels rows in all."""
    levels = check_integer(levels, "levels", 1, error=ScaleTooDeep)
    rows = [first]
    for _ in range(levels - 1):
        up = np.zeros(2 * rows[-1].size - 1)
        up[::2] = rows[-1]
        rows.append(np.convolve(up, kernel))
    return tuple(rows)


def discrete_wavelets(filt: WaveletFilter, levels: int) -> tuple[np.ndarray, ...]:
    """psi_1..psi_levels by the cascade; psi_j is entry j - 1."""
    return _cascade(filt.highpass.copy(), filt.lowpass, levels)


def autocorrelation_wavelets(filt: WaveletFilter, levels: int) -> AutocorrelationWavelet:
    """Psi_1..Psi_levels by their own two-scale cascade (module docstring)."""
    g, h = filt.highpass, filt.lowpass
    rows = _cascade(np.convolve(g, g[::-1]), np.convolve(h, h[::-1]), levels)
    return AutocorrelationWavelet(filter=filt, values=rows)


def _overlaps(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out[j, l] = sum_c u[j, c] v[l, c], summed without BLAS (module docstring)."""
    blocks = -(-u.shape[1] // _TAU_BLOCK)
    pad = ((0, 0), (0, blocks * _TAU_BLOCK - u.shape[1]))
    u = np.pad(u, pad).reshape(u.shape[0], blocks, _TAU_BLOCK)
    v = np.pad(v, pad).reshape(v.shape[0], blocks, _TAU_BLOCK)
    return np.einsum("jbc,lbc->jlb", u, v).sum(axis=-1)


def lagged_a_matrix(acw: AutocorrelationWavelet, max_scale: int, lag: int) -> np.ndarray:
    """Matrix with entries sum_tau Psi_j(tau) Psi_l(tau - lag); symmetric."""
    max_scale = check_integer(max_scale, "max_scale", 1, acw.levels, DimensionMismatch)
    # Psi is even, so lags -p and p give the same matrix
    lag = abs(check_integer(lag, "lag", -np.inf, error=DimensionMismatch))
    table = acw.window(max_scale, acw.radius(max_scale))
    return _overlaps(table[:, lag:], table[:, : max(table.shape[1] - lag, 0)])


def _invert(mat: np.ndarray, kind: str, levels: int) -> CorrectionMatrix:
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrix(
            f"{kind} correction matrix at depth {levels} has condition {cond:.3g}"
        )
    return CorrectionMatrix(matrix=mat, inverse=np.linalg.inv(mat), cond=cond)


def a_matrix(acw: AutocorrelationWavelet, max_scale: int) -> CorrectionMatrix:
    """Inner product matrix of the autocorrelation wavelets, inverted."""
    mat = lagged_a_matrix(acw, max_scale, 0)
    return _invert(mat, "direct", max_scale)


def d_matrix(
    acw: AutocorrelationWavelet, max_scale: int, lag: int = 1, order: int = 1
) -> CorrectionMatrix:
    """Bias operator for a periodogram of the normalised differenced series.

    order 1 allows any positive lag; order 2 is the repeated first difference
    and is only defined for lag 1.
    """
    lag, order = check_diff((lag, order))
    if order == 1:
        mat = lagged_a_matrix(acw, max_scale, 0) - lagged_a_matrix(acw, max_scale, lag)
    else:
        a0 = lagged_a_matrix(acw, max_scale, 0)
        a1 = lagged_a_matrix(acw, max_scale, 1)
        a2 = lagged_a_matrix(acw, max_scale, 2)
        mat = a0 - (4.0 / 3.0) * a1 + (1.0 / 3.0) * a2
    return _invert(mat, "difference", max_scale)


def cross_a_matrix(
    acw_generating: AutocorrelationWavelet,
    acw_analysis: AutocorrelationWavelet,
    max_scale: int,
) -> np.ndarray:
    """Cross inner products between two autocorrelation wavelet systems.

    Entry (r, l) pairs scale r of the analysis wavelet with scale l of the
    generating wavelet, so that row r against a spectrum vector gives the
    variance of the scale-r analysis coefficient of a process generated with
    the other wavelet.
    """
    depth = min(acw_generating.levels, acw_analysis.levels)
    max_scale = check_integer(max_scale, "max_scale", 1, depth, DimensionMismatch)
    # beyond the shorter support every product is zero
    radius = min(acw_generating.radius(max_scale), acw_analysis.radius(max_scale))
    return _overlaps(
        acw_analysis.window(max_scale, radius), acw_generating.window(max_scale, radius)
    )


_DIFF_NORM = {1: np.sqrt(2.0), 2: np.sqrt(6.0)}


def check_diff(diff, n: int | None = None) -> tuple[int, int]:
    """diff as an int (lag, order) pair: order 1 at any positive lag, order 2
    at lag 1, leaving two of n values when n is given."""
    try:
        lag, order = diff
    except (TypeError, ValueError):
        raise InvalidDiffSpec(f"diff must be a (lag, order) pair, got {diff!r}") from None
    message = f"difference order must be 1 or 2, got {order}"
    order = check_integer(order, "difference order", 1, 2, InvalidDiffSpec, message)
    message = "difference lag must be a positive integer"
    lag = check_integer(lag, "difference lag", 1, None, InvalidDiffSpec, message)
    if order == 2 and lag != 1:
        raise InvalidDiffSpec("second differencing is only defined for lag 1")
    if n is not None and n < lag * order + 2:
        raise SeriesTooShort(f"need at least {lag * order + 2} observations, got {n}")
    return lag, order


def difference_series(x: np.ndarray, lag: int = 1, order: int = 1) -> np.ndarray:
    """Variance-normalised differencing.

    A single lag-p difference is divided by sqrt(2); the order-2 difference
    (lag 1 applied twice) by sqrt(6).  With this scaling the periodogram of
    the output is corrected by the matching d_matrix without extra factors.
    """
    x = as_floats(x, "series values", (None,))
    lag, order = check_diff((lag, order), x.size)
    if order == 1:
        out = x[lag:] - x[:-lag]
    else:
        out = x[2:] - 2.0 * x[1:-1] + x[:-2]
    return out / _DIFF_NORM[order]
