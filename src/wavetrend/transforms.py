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
* none: the series itself, for transforms that wrap it circularly.

A nondecimated transform need not run over the whole extension.  At stride 1
it is exactly shift-equivariant (Nason & Silverman 1995; Percival & Walden
2000, ch. 5): each output is the same multiply-adds, in the same order, on a
fixed stretch of input around its own position (a level-j coefficient at p
reads x[p - s_j, p - s_j + L_j - 1], s_j = centre_shift(L, j), L_j =
support_length(L, j)).  crop_extension describes the span of an extension
that reaches far enough past each end of the data window, and extend_rows
returns only that span, so the outputs in the window keep their bytes.

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

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ModeMismatch, NonDyadicLength, ScaleTooDeep, SeriesTooShort, WavetrendError, check_integer
)
from .filters import WaveletFilter
from .wavelets import support_length

__all__ = [
    "TREND_REFLECT",
    "SYMMETRIC_TRIPLE",
    "NO_EXTENSION",
    "NONDECIMATED",
    "DECIMATED",
    "ExtensionDescriptor",
    "CoefficientPyramid",
    "as_series",
    "extension_descriptor",
    "crop_extension",
    "extend_rows",
    "extend_adjoint",
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
NO_EXTENSION = "none"
NONDECIMATED = "nondecimated"
DECIMATED = "decimated"


def next_pow2(m: int) -> int:  # m >= 1: extension_descriptor checks its n
    return 1 << (m - 1).bit_length()


def as_series(x, min_length: int) -> np.ndarray:
    """x as a finite one dimensional float array of at least min_length values."""
    try:
        x = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise WavetrendError(f"series values must be numbers: {exc}") from None
    if x.ndim != 1:
        raise SeriesTooShort("expected a one dimensional series")
    if x.size < min_length:
        raise SeriesTooShort(f"need at least {min_length} observations, got {x.size}")
    if not np.isfinite(x).all():
        raise WavetrendError("series values must be finite")
    return x


@dataclass(frozen=True)
class ExtensionDescriptor:
    """Where the original data sits inside an extended series, or inside the
    span of it that crop_extension keeps."""

    policy: str
    original_length: int
    extended_length: int
    offset: int

    def window(self) -> slice:
        return slice(self.offset, self.offset + self.original_length)


def extension_descriptor(n: int, policy: str) -> ExtensionDescriptor:
    """Where extend_rows puts a length-n series in its extension (centred)."""
    n = check_integer(n, "series length", 1, error=SeriesTooShort)
    if policy == TREND_REFLECT:
        target = next_pow2(2 * n)
        offset = (target - n) // 2
    elif policy == SYMMETRIC_TRIPLE:
        target = next_pow2(3 * n)
        offset = (target - 3 * n) // 2 + n
    elif policy == NO_EXTENSION:
        target, offset = n, 0
    else:
        raise ModeMismatch(f"unknown extension policy {policy!r}")
    return ExtensionDescriptor(
        policy=policy, original_length=n, extended_length=target, offset=offset
    )


def crop_extension(desc: ExtensionDescriptor, before: int, after: int) -> ExtensionDescriptor:
    """desc for the span of its extension from before samples ahead of the
    data window to after samples past it.

    desc itself when there is no extension or the span does not fit inside
    it; the span is never longer than the extension.
    """
    lo, hi = desc.offset - before, desc.offset + desc.original_length + after
    if desc.policy == NO_EXTENSION or lo < 0 or hi > desc.extended_length:
        return desc
    return replace(desc, extended_length=hi - lo, offset=before)


def extend_rows(x: np.ndarray, desc: ExtensionDescriptor) -> np.ndarray:
    """Extend every row along the last axis of x as desc says (none: x itself); rows unchecked.

    For a desc from crop_extension this is its span of the whole extension.
    """
    if desc.policy == NO_EXTENSION:
        return x
    whole = extension_descriptor(desc.original_length, desc.policy)
    left = whole.offset
    if desc.policy == SYMMETRIC_TRIPLE:
        x = np.concatenate([x[..., ::-1], x, x[..., ::-1]], axis=-1)
        left -= desc.original_length
    right = whole.extended_length - x.shape[-1] - left
    widths = [(0, 0)] * (x.ndim - 1) + [(left, right)]
    lo = whole.offset - desc.offset
    extended = np.pad(x, widths, mode="reflect", reflect_type="odd")
    return extended[..., lo : lo + desc.extended_length]


def extend_adjoint(b: np.ndarray, desc: ExtensionDescriptor) -> np.ndarray:
    """Adjoint of extend_rows along the last axis of b, for the whole
    symmetric_triple extension or none.

    A pad sample d steps past edge e of t = [reverse(x), x, reverse(x)] is
    2 t[e] - t[e -/+ d], and the pads are shorter than 3n: so each reversed
    pad is subtracted next to its edge and twice its sum added at the edge,
    then the thirds of t fold onto x.  Slices and sums, no loop over rows.
    """
    if desc.policy == NO_EXTENSION:
        return b
    if desc != extension_descriptor(desc.original_length, SYMMETRIC_TRIPLE):
        raise ValueError(f"extend_adjoint supports only the whole {SYMMETRIC_TRIPLE!r} extension")
    n, left = desc.original_length, desc.offset - desc.original_length
    lo, t, hi = np.split(b, [left, left + 3 * n], axis=-1)
    t = t.astype(np.float64)  # a copy, float like the extension of any input
    t[..., 1 : left + 1] -= lo[..., ::-1]
    t[..., 3 * n - 1 - hi.shape[-1] : 3 * n - 1] -= hi[..., ::-1]
    t[..., 0] += 2.0 * lo.sum(axis=-1)
    t[..., -1] += 2.0 * hi.sum(axis=-1)
    out = t[..., n - 1 :: -1] + t[..., n : 2 * n]
    out += t[..., : 2 * n - 1 : -1]
    return out


@dataclass(frozen=True)
class CoefficientPyramid:
    """Wavelet coefficients of one transform of a series, or of a batch of
    series along the leading axes.

    details[j - 1] holds the level-j detail coefficients; scaling holds the
    deepest-level scaling coefficients.  Nondecimated rows all have the
    transform length; decimated rows halve per level.  levels and length,
    the transform length, are read from the rows.
    """

    mode: str
    filter: WaveletFilter
    details: tuple[np.ndarray, ...] = field(repr=False)
    scaling: np.ndarray = field(repr=False)

    @property
    def levels(self) -> int:
        return len(self.details)

    @property
    def length(self) -> int:
        return self.details[0].shape[-1] * (2 if self.mode == DECIMATED else 1)

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


_BLOCK_ELEMENTS = 2**17  # doubles (1 MiB) per block of the interval loops and filter-bank steps


def _circular(x: np.ndarray, offset: int, span: int) -> np.ndarray:
    """x[..., (offset + k) % n] for k < span: a view when it does not wrap, else one copy."""
    n = x.shape[-1]
    start = offset % n
    if start + span <= n:
        return x[..., start : start + span]
    whole, tail = divmod(start + span - 2 * n, n)
    return np.concatenate([x[..., start:]] + [x] * (whole + 1) + [x[..., :tail]], axis=-1)


def _filter_bank(inputs, bases, reach, strides, outputs, terms) -> list[np.ndarray]:
    """The multiply-adds of one filter-bank step, onto zeros, in term order.

    Term (o, phase, k, start, tap) adds tap * inputs[k][..., s_in i + start
    + bases[k]] to out_o[..., s_out i + phase] at every output column i,
    circularly, with (s_in, s_out) = strides and start <= s_in reach.
    Blocks of whole rows, or column chunks of one row, are sized so that the
    input windows, sums and product of a block hold _BLOCK_ELEMENTS doubles.
    In a block the rows of each input's window are laid end to end, reach
    columns apart, and so are the sums: a term is one multiply and one add.
    """
    rows = [x.reshape(-1, x.shape[-1]) for x in inputs]
    (s_in, s_out), cols = strides, rows[0].shape[1] // strides[0]
    outs = [np.empty((len(rows[0]), s_out * cols)) for _ in range(outputs)]
    budget = _BLOCK_ELEMENTS // (len(inputs) * s_in + outputs * s_out + 1)  # columns
    width = min(cols, budget)
    height = max(1, budget // width)
    for r, c in itertools.product(range(0, len(rows[0]), height), range(0, cols, width)):
        block, part = slice(r, r + height), min(width, cols - c)
        windows = [_circular(x[block], s_in * c + base, s_in * (part + reach)).ravel()
                   for x, base in zip(rows, bases)]
        size = windows[0].size // s_in - reach
        sums, scratch = np.zeros((outputs, s_out * (size + reach))), np.empty(size)
        for o, phase, k, start, tap in terms:
            src = windows[k][start : start + s_in * size : s_in]
            sums[o, phase::s_out][:size] += np.multiply(tap, src, out=scratch)
        for out, acc in zip(outs, sums.reshape(outputs, -1, s_out * (part + reach))):
            out[block, s_out * c : s_out * (c + part)] = acc[:, : s_out * part]
        del windows, src, sums, scratch, acc  # free the block before the next one allocates
    return [out.reshape(inputs[0].shape[:-1] + (-1,)) for out in outs]


def _analysis_step(
    approx: np.ndarray, filt: WaveletFilter, step: int, stride: int, shifts
) -> list[np.ndarray]:
    """[detail, smooth]: circular correlation of each row with g and with h.

    detail[..., i] = sum_m g[m] approx[..., (stride (i - shifts[0]) + step m) % n]
    and smooth likewise with h and shifts[1]: taps step apart, every
    stride-th output kept, each output rolled right by its shift.  Every
    row of a batch gets the multiply-adds of a one-row call.
    """
    heads = [stride * (max(shifts) - shift) for shift in shifts]
    terms = [(o, 0, 0, head + step * m, tap)
             for m, taps in enumerate(zip(filt.highpass, filt.lowpass))
             for o, (tap, head) in enumerate(zip(taps, heads))]
    reach = -(-(step * (filt.length - 1) + max(heads)) // stride)
    return _filter_bank([approx], [-stride * max(shifts)], reach, (stride, 1), 2, terms)


def _synthesis_step(
    approx: np.ndarray, detail: np.ndarray, filt: WaveletFilter, step: int, stride: int, shifts
) -> np.ndarray:
    """Adjoint of _analysis_step applied to both rows, summed.

    out[..., (stride i + step m) % (stride k)] += h[m] approx[..., i + shifts[1]]
    + g[m] detail[..., i + shifts[0]] for rows of length k, indices circular.
    Each tap writes one phase of the output (every stride-th position), so
    at stride 2 no multiply-add lands on the zeros of an upsampled row.
    """
    reach = step * (filt.length - 1) // stride
    terms = [(0, step * m % stride, k, reach - step * m // stride, tap)
             for m, taps in enumerate(zip(filt.lowpass, filt.highpass))
             for k, tap in enumerate(taps)]
    bases = [shifts[1] - reach, shifts[0] - reach]
    return _filter_bank([approx, detail], bases, reach, (1, stride), 1, terms)[0]


def _level(mode: str, filter_length: int, level: int, levels: int):
    """(step, stride, (detail, smooth) centring shifts) of a level; the last smooth is scaling."""
    if mode == DECIMATED:
        return 1, 2, (0, 0)
    shift = centre_shift(filter_length, level)
    return 2 ** (level - 1), 1, (shift, shift * (level == levels))


def _forward(x, filt: WaveletFilter, levels: int, mode: str) -> CoefficientPyramid:
    """x may hold many series along its last axis; the pyramid's rows keep the leading axes."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    n = x.shape[-1]
    if mode == DECIMATED and (n < 2 or n & (n - 1)):
        raise NonDyadicLength(f"decimated transform needs a power-of-two length, got {n}")
    levels = check_integer(levels, "levels", 1, error=ScaleTooDeep)
    if 2**levels > n:
        raise ScaleTooDeep(f"{levels} levels need at least {2**levels} observations")
    approx, details = x, []
    for j in range(1, levels + 1):
        detail, approx = _analysis_step(approx, filt, *_level(mode, filt.length, j, levels))
        details.append(detail)
    return CoefficientPyramid(mode, filt, tuple(details), approx)


def _inverse(pyr: CoefficientPyramid, mode: str, forward: str) -> np.ndarray:
    if pyr.mode != mode:
        raise ModeMismatch(f"pyramid was not produced by {forward}")
    approx = pyr.scaling
    for j in range(pyr.levels, 0, -1):
        level = _level(mode, pyr.filter.length, j, pyr.levels)
        approx = _synthesis_step(approx, pyr.detail(j), pyr.filter, *level)
        if mode == NONDECIMATED:
            approx *= 0.5  # the average of the two shifted bases
    return approx


def ndwt_forward(x: np.ndarray, filt: WaveletFilter, levels: int) -> CoefficientPyramid:
    """Nondecimated transform with centre-aligned coefficient rows."""
    return _forward(x, filt, levels, NONDECIMATED)


def ndwt_average_basis(pyr: CoefficientPyramid) -> np.ndarray:
    """Basis-averaged inverse of a nondecimated pyramid."""
    return _inverse(pyr, NONDECIMATED, "ndwt_forward")


def dwt_forward(x: np.ndarray, filt: WaveletFilter, levels: int) -> CoefficientPyramid:
    """Orthogonal periodic transform; needs a power-of-two length."""
    return _forward(x, filt, levels, DECIMATED)


def dwt_inverse(pyr: CoefficientPyramid) -> np.ndarray:
    """Exact inverse (the adjoint) of dwt_forward."""
    return _inverse(pyr, DECIMATED, "dwt_forward")


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
