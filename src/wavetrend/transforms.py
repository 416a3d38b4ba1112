"""Series extension and the (non)decimated wavelet transforms.

Both transforms treat their input circularly.  Boundary handling is done by
extending the series first and remembering where the original segment sits
via an ExtensionDescriptor:

* trend_reflect: point (odd) reflection about each endpoint, which continues
  a linear trend across the joins exactly.  Padded to the next power of two
  at least twice the input length, original segment centred.
* symmetric_triple: plain reflection [reverse(x), x, reverse(x)], then odd
  reflection padding to the next power of two at least three times the input
  length, original segment centred.

Alignment: a nondecimated coefficient at position k is computed from the
window of data centred on k.  Concretely the level-j detail row is the
circular correlation of the data with psi_j assigned to the rightmost filter
tap and then shifted left by floor((L_j - 1) / 2), so a unit impulse at t
produces the reversed psi_j traced around position t.

The nondecimated inverse implemented here is the usual basis-averaging
reconstruction: every level halves the pair of shifted orthogonal-basis
inverses, which equals averaging all 2**levels decimated reconstructions and
is exact on an untouched pyramid for any input length.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ModeMismatch, NonDyadicLength, ScaleTooDeep, SeriesTooShort, WavetrendError
from .filters import WaveletFilter
from .wavelets import support_length

__all__ = [
    "TREND_REFLECT",
    "SYMMETRIC_TRIPLE",
    "NONDECIMATED",
    "DECIMATED",
    "ExtensionDescriptor",
    "CoefficientPyramid",
    "as_series",
    "extension_descriptor",
    "extend_rows",
    "extend_adjoint",
    "extend_series",
    "ndwt_forward",
    "ndwt_average_basis",
    "dwt_forward",
    "dwt_inverse",
    "centre_shift",
    "detail_support",
    "next_pow2",
]

TREND_REFLECT = "trend_reflect"
SYMMETRIC_TRIPLE = "symmetric_triple"
NONDECIMATED = "nondecimated"
DECIMATED = "decimated"


def next_pow2(m: int) -> int:
    if m < 1:
        raise ValueError("next_pow2 needs a positive integer")
    return 1 << (m - 1).bit_length()


def as_series(x, min_length: int) -> np.ndarray:
    """x as a finite one dimensional float array of at least min_length values."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise SeriesTooShort("expected a one dimensional series")
    if x.size < min_length:
        raise SeriesTooShort(f"need at least {min_length} observations, got {x.size}")
    if not np.isfinite(x).all():
        raise WavetrendError("series values must be finite")
    return x


@dataclass(frozen=True)
class ExtensionDescriptor:
    """Where the original data sits inside an extended series."""

    policy: str
    original_length: int
    extended_length: int
    offset: int

    def window(self) -> slice:
        return slice(self.offset, self.offset + self.original_length)


def extension_descriptor(n: int, policy: str) -> ExtensionDescriptor:
    """Where extend_series puts a length-n series."""
    if policy == TREND_REFLECT:
        target = next_pow2(2 * n)
        offset = (target - n) // 2
    elif policy == SYMMETRIC_TRIPLE:
        target = next_pow2(3 * n)
        offset = (target - 3 * n) // 2 + n
    else:
        raise ValueError(f"unknown extension policy {policy!r}")
    return ExtensionDescriptor(
        policy=policy, original_length=n, extended_length=target, offset=offset
    )


def extend_rows(x: np.ndarray, desc: ExtensionDescriptor) -> np.ndarray:
    """Extend every row along the last axis of x as desc says; rows are not checked."""
    left = desc.offset
    if desc.policy == SYMMETRIC_TRIPLE:
        x = np.concatenate([x[..., ::-1], x, x[..., ::-1]], axis=-1)
        left -= desc.original_length
    right = desc.extended_length - x.shape[-1] - left
    widths = [(0, 0)] * (x.ndim - 1) + [(left, right)]
    return np.pad(x, widths, mode="reflect", reflect_type="odd")


def extend_adjoint(b: np.ndarray, desc: ExtensionDescriptor) -> np.ndarray:
    """Adjoint of extend_rows along the last axis of b, for symmetric_triple only.

    Every extended sample reads the data at one mirror index, and in the
    odd-reflection pads also at one edge index (2 x[edge] - x[mirror]);
    padding the index row of [reverse, identity, reverse] like the data
    gives both.  The pads are shorter than 3n, so one reflection covers them.
    """
    if desc.policy != SYMMETRIC_TRIPLE:
        raise ValueError(f"extend_adjoint supports only {SYMMETRIC_TRIPLE!r}, not {desc.policy!r}")
    n = desc.original_length
    index = np.arange(n)
    triple = np.concatenate([index[::-1], index, index[::-1]])
    left = desc.offset - n
    widths = (left, desc.extended_length - 3 * n - left)
    mirror = np.pad(triple, widths, mode="reflect")
    edge = np.pad(triple, widths, mode="edge")
    pad = np.ones(desc.extended_length, dtype=bool)
    pad[left : left + 3 * n] = False
    sign = np.where(pad, -1.0, 1.0)
    rows = b.reshape(-1, desc.extended_length)
    out = np.zeros((rows.shape[0], n))
    # one row per np.add.at call: the 1-d form is many times faster than a 2-d index
    for row, acc in zip(rows, out):
        np.add.at(acc, mirror, sign * row)
        np.add.at(acc, edge[pad], 2.0 * row[pad])
    return out.reshape(b.shape[:-1] + (n,))


def extend_series(x: np.ndarray, policy: str) -> tuple[np.ndarray, ExtensionDescriptor]:
    """Extend a series to a dyadic length with the original segment centred."""
    x = as_series(x, 2)
    desc = extension_descriptor(x.size, policy)
    return extend_rows(x, desc), desc


@dataclass(frozen=True)
class CoefficientPyramid:
    """Wavelet coefficients of one transform of a series, or of a batch of
    series along the leading axes.

    details[j - 1] holds the level-j detail coefficients; scaling holds the
    deepest-level scaling coefficients.  Nondecimated rows all have the
    transform length; decimated rows halve per level.  length is the
    transform length, the size of the last axis.
    """

    mode: str
    filter: WaveletFilter
    levels: int
    length: int
    details: tuple[np.ndarray, ...] = field(repr=False)
    scaling: np.ndarray = field(repr=False)

    def detail(self, level: int) -> np.ndarray:
        return self.details[level - 1]

    def with_details(self, details: tuple[np.ndarray, ...]) -> "CoefficientPyramid":
        if len(details) != self.levels:
            raise ModeMismatch("detail level count changed")
        return replace(self, details=tuple(details))


def centre_shift(filter_length: int, level: int) -> int:
    """Left shift applied to align coefficient k with data time k."""
    lj = support_length(filter_length, level)
    return (lj - 1) - (lj - 1) // 2  # ceil((L_j - 1) / 2)


def _check_levels(n: int, levels: int) -> None:
    if levels < 1:
        raise ScaleTooDeep("levels must be at least 1")
    if 2**levels > n:
        raise ScaleTooDeep(f"{levels} levels need at least {2**levels} observations")


def _windows(n: int, offset: int, stride: int):
    """(out, src) slice pairs that read x[(stride * i + offset) % n] into out[i].

    Covers i < n // stride in two pieces, before and after the read position
    wraps past the end of the row; offset must lie in [0, n).
    """
    head = -(-(n - offset) // stride)
    yield slice(0, head), slice(offset, n, stride)
    if offset:
        yield slice(head, n // stride), slice((offset - n) % stride, offset, stride)


def _analysis_step(
    approx: np.ndarray, filt: WaveletFilter, step: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Circular correlation of each row with the highpass and lowpass filters.

    detail[..., i] = sum_m g[m] approx[..., (stride i + step m) % n] and
    smooth likewise with h: taps step apart, every stride-th output position
    kept.  Rows run along the last axis; every row of a batch gets the same
    multiply-adds in the same order as a one-row call.
    """
    n = approx.shape[-1]
    detail = np.zeros(approx.shape[:-1] + (n // stride,))
    smooth = np.zeros_like(detail)
    for m, (g, h) in enumerate(zip(filt.highpass, filt.lowpass)):
        for out, src in _windows(n, step * m % n, stride):
            window = approx[..., src]
            # accumulate through views; `row[out] += ...` would also copy back
            d, a = detail[..., out], smooth[..., out]
            d += g * window
            a += h * window
    return detail, smooth


def _synthesis_step(
    approx: np.ndarray, detail: np.ndarray, filt: WaveletFilter, step: int, stride: int
) -> np.ndarray:
    """Adjoint of _analysis_step applied to both rows, summed.

    out[..., (stride i + step m) % (stride k)] += h[m] approx[..., i] +
    g[m] detail[..., i] for rows of length k.  Each tap writes one phase of
    the output (every stride-th position), so at stride 2 no multiply-add
    lands on the zeros of an upsampled row; taps still run in ascending order.
    """
    k = approx.shape[-1]
    nxt = np.zeros(approx.shape[:-1] + (stride * k,))
    for m, (g, h) in enumerate(zip(filt.highpass, filt.lowpass)):
        shift = step * m
        phase = nxt[..., shift % stride :: stride]
        for out, src in _windows(k, -(shift // stride) % k, 1):
            acc = phase[..., out]
            acc += h * approx[..., src]
            acc += g * detail[..., src]
    return nxt


def ndwt_forward(x: np.ndarray, filt: WaveletFilter, levels: int) -> CoefficientPyramid:
    """Nondecimated transform with centre-aligned coefficient rows.

    x may hold many series along its last axis; the pyramid's rows keep the
    leading axes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    n = x.shape[-1]
    _check_levels(n, levels)
    approx = x
    details: list[np.ndarray] = []
    for j in range(1, levels + 1):
        detail, approx = _analysis_step(approx, filt, 2 ** (j - 1), 1)
        details.append(np.roll(detail, centre_shift(filt.length, j), axis=-1))
    scaling = np.roll(approx, centre_shift(filt.length, levels), axis=-1)
    return CoefficientPyramid(
        mode=NONDECIMATED,
        filter=filt,
        levels=levels,
        length=n,
        details=tuple(details),
        scaling=scaling,
    )


def ndwt_average_basis(pyr: CoefficientPyramid) -> np.ndarray:
    """Basis-averaged inverse of a nondecimated pyramid."""
    if pyr.mode != NONDECIMATED:
        raise ModeMismatch("pyramid was not produced by ndwt_forward")
    length = pyr.filter.length
    approx = np.roll(pyr.scaling, -centre_shift(length, pyr.levels), axis=-1)
    for j in range(pyr.levels, 0, -1):
        detail = np.roll(pyr.detail(j), -centre_shift(length, j), axis=-1)
        approx = 0.5 * _synthesis_step(approx, detail, pyr.filter, 2 ** (j - 1), 1)
    return approx


def dwt_forward(x: np.ndarray, filt: WaveletFilter, levels: int) -> CoefficientPyramid:
    """Orthogonal periodic transform; needs a power-of-two length.

    x may hold many series along its last axis; the pyramid's rows keep the
    leading axes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    n = x.shape[-1]
    if n < 2 or n & (n - 1):
        raise NonDyadicLength(f"decimated transform needs a power-of-two length, got {n}")
    _check_levels(n, levels)
    approx = x
    details: list[np.ndarray] = []
    for _ in range(levels):
        detail, approx = _analysis_step(approx, filt, 1, 2)
        details.append(detail)
    return CoefficientPyramid(
        mode=DECIMATED,
        filter=filt,
        levels=levels,
        length=n,
        details=tuple(details),
        scaling=approx,
    )


def dwt_inverse(pyr: CoefficientPyramid) -> np.ndarray:
    """Exact inverse (the adjoint) of dwt_forward."""
    if pyr.mode != DECIMATED:
        raise ModeMismatch("pyramid was not produced by dwt_forward")
    approx = pyr.scaling
    for j in range(pyr.levels, 0, -1):
        approx = _synthesis_step(approx, pyr.detail(j), pyr.filter, 1, 2)
    return approx


def detail_support(
    mode: str, filter_length: int, level: int, index: int | np.ndarray
) -> tuple[int | np.ndarray, int]:
    """(start, length) of the data window a detail coefficient draws on.

    Start is reported in unwrapped transform coordinates and may be negative
    or extend past the transform length, in which case the support wraps.
    """
    lj = support_length(filter_length, level)
    if mode == DECIMATED:
        return (2**level) * index, lj
    if mode == NONDECIMATED:
        return index - centre_shift(filter_length, level), lj
    raise ModeMismatch(f"unknown transform mode {mode!r}")
