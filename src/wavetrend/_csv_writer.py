"""Write a float64 matrix as CSV bytes equal to "%.17g" % v per value.

Seventeen significant digits read back to the same double.  The digits
are generated in numpy, a chunk of values at a time, instead of one
Python format call per value:

* |v| is scaled to D + g = |v| * 10**(16 - k), k = floor(log10 |v|), D
  whole and |g| <= 1/2, in double-double arithmetic: 10**p is tabled as
  a correctly rounded (hi, lo) pair and |v| * hi is split exactly by
  Dekker's two-product.  The error on D + g is below 1e-14, so D is |v|
  rounded to 17 digits unless g is within 1e-7 of a half.
* D and k are laid out as %g lays them out: fixed notation for
  -4 <= k < 17, else d.ddd then e+XX, trailing zeros dropped.  Each value
  gets a column of byte slots, unused ones 0, so a decimal point sits in
  a slot of its own and no field is shifted; the zeros are deleted from
  the joined bytes.

A value outside 1e-250 < |v| < 1e250 (zeros, subnormals, nan, inf, and
values whose scaled products could leave the normal range) or with g
within 1e-7 of a half (where an exact tie rounds half to even) is
formatted by Python's "%.17g" instead.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_CHUNK = 1 << 14  # values per pass: about 2 MiB of temporaries
_FAST = (1e-250, 1e250)
_P_MIN, _P_MAX = -240, 270  # 10**p tabled for every 16 - k of the fast range
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles
_TIE = 1e-7

_DIGITS = 17
_ZERO, _POINT, _COMMA = b"0.,"
_FALLBACK_WIDTH = 24  # the longest "%.17g" text: -2.2250738585072014e-308
_MAX_SLOTS = 1 + 5 + 2 * _DIGITS - 1 + 5  # sign, "0.000", digits and points, "e+123"


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into hi + lo, each of 26 significant bits or fewer."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@cache
def _powers() -> np.ndarray:
    """Rows hi, hi's halves and lo of 10**p for p in _P_MIN.._P_MAX, hi + lo within 2**-106.

    Integer division rounds correctly, so hi is 10**p rounded and lo the
    rest rounded."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den
        m, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - m * den) / (den * d))
    hi = np.array(hi)
    return np.stack([hi, *_split(hi), np.array(lo)])


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, g) with N + g = a * 10**(16 - k) to within 1e-14, N whole and |g| <= 1/2."""
    hi, hi_hi, hi_lo, lo = np.take(_powers(), 16 - _P_MIN - k, axis=1)
    a_hi, a_lo = _split(a)
    p = a * hi  # whole once p >= 2**53, as it is wherever k is right
    # err = ((a_hi hi_hi - p) + a_hi hi_lo + a_lo hi_hi) + a_lo hi_lo + a lo,
    # summed in place in that order
    err = a_hi * hi_hi
    err -= p
    for x, y in ((a_hi, hi_lo), (a_lo, hi_hi), (a_lo, hi_lo), (a, lo)):
        err += x * y
    whole = np.rint(err)
    return p.astype(np.int64) + whole.astype(np.int64), err - whole


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(17 digit characters as rows, significant digits, decimal exponent, unsure mask) of a > 0.

    Significant digits leave out trailing zeros; a value is unsure where
    its rounding to 17 digits is within _TIE of a tie."""
    k = np.floor(np.log10(a)).astype(np.int64)
    D, g = _scaled(a, k)
    # Next below 10**k, log10 may round up to k: D then falls short of
    # 10**16, and k - 1 is right.  D = 10**16 with -0.05 <= g < 0 is right
    # as it is, for at k - 1 it rounds up to 10**17.  Whatever is still out
    # of range is left to Python.
    low = np.flatnonzero((D < 10**16) | ((D == 10**16) & (g < -0.05)))
    k[low] -= 1
    D[low], g[low] = _scaled(a[low], k[low])
    unsure = (np.abs(np.abs(g) - 0.5) < _TIE) | (D < 10**16) | (D >= 10**17)
    # 9 digits from each of two uint32 halves, two at a time from the right;
    # the first is the leading zero of the 8-digit upper half
    upper = D // 10**9
    q = np.stack([upper, D - upper * 10**9]).astype(np.uint32)
    halves = np.empty((2, 9, a.size), np.uint8)
    for i in range(7, 0, -2):
        rest = q // 100
        pair = (q - rest * 100).astype(np.uint8)
        tens = pair // 10
        halves[:, i] = tens
        halves[:, i + 1] = pair - tens * 10
        q = rest
    halves[:, 0] = q
    chars = halves.reshape(18, a.size)[1:]
    sig, trailing = np.full(a.size, _DIGITS), np.ones(a.size, bool)
    for row in chars[:0:-1]:
        trailing &= row == 0
        sig -= trailing
    chars += _ZERO
    return chars, sig, k, unsure


def _slots(v: np.ndarray, line_end: np.ndarray, ends: bytes) -> np.ndarray:
    """The bytes of one chunk of values, one column per value and 0 where unused.

    A column holds sign, the "0.000" of fixed notation below 1, 17 digits
    each with a slot for the point after it, the exponent, and the
    separator ("," or, where line_end marks the last value of a row, ends).
    Slots no value of the chunk uses are left out."""
    a = np.abs(v)
    fast = (a > _FAST[0]) & (a < _FAST[1])
    chars, sig, k, unsure = _digits17(np.where(fast, a, 1.0))
    slow = np.flatnonzero(~fast | unsure)
    fixed = (k >= -4) & (k < _DIGITS)
    lead = fixed & (k < 0)
    keep = np.where(fixed & (k >= 0), np.maximum(sig, k + 1), sig)
    chars *= np.arange(_DIGITS)[:, None] < keep
    point = np.where(fixed, k, 0)  # the digit a point follows, if any
    point[lead | (sig <= point + 1)] = -1
    exp, e = ~fixed, np.abs(k).astype(np.uint8)

    out = np.empty((_MAX_SLOTS + len(ends), v.size), np.uint8)
    width = 0

    def slot(mask, byte=None):
        """Fill the next row with byte where mask is set and 0 elsewhere, or with
        mask itself when byte is None; a row no value needs is left out."""
        nonlocal width
        if byte is None:
            out[width] = mask
        elif mask.any():
            np.multiply(mask, byte, out=out[width], casting="unsafe")
        else:
            return
        width += 1

    slot(v < 0, ord("-"))
    slot(lead, _ZERO)
    slot(lead, _POINT)
    for z in range(3):
        slot(lead & (k < -1 - z), _ZERO)
    used = np.bincount(point + 1, minlength=_DIGITS + 1)[1:]
    for i in range(_DIGITS):
        slot(chars[i])
        if used[i]:
            slot(point == i, _POINT)
    slot(exp, ord("e"))
    slot(exp, np.where(k < 0, ord("-"), ord("+")).astype(np.uint8))
    slot(exp & (e >= 100), e // 100 + _ZERO)
    slot(exp, e // 10 % 10 + _ZERO)
    slot(exp, e % 10 + _ZERO)
    if slow.size:
        out[width:_FALLBACK_WIDTH] = 0
        width = max(width, _FALLBACK_WIDTH)
        text = np.array([b"%.17g" % x for x in v[slow].tolist()], dtype=f"S{width}")
        out[:width, slow] = text.view(np.uint8).reshape(slow.size, width).T
    out[width] = _COMMA
    out[width + 1 : width + len(ends)] = 0
    for row, byte in zip(out[width:], ends):
        row[line_end] = byte
    return out[: width + len(ends)]


def write_rows(fh, rows: np.ndarray, suffix: bytes = b"") -> None:
    """Each row of a float matrix (each value of a vector) as one line of "%.17g" values.

    Values are separated by ",", and each line ends in suffix and "\\n";
    fh is a file opened for binary writing."""
    rows = np.asarray(rows, dtype=np.float64)
    width = rows.shape[1] if rows.ndim == 2 else 1
    flat = rows.ravel()
    ends = suffix + b"\n"
    for start in range(0, flat.size, _CHUNK):
        v = flat[start : start + _CHUNK]
        line_end = np.zeros(v.size, bool)
        line_end[(width - 1 - start) % width :: width] = True
        # the chunk's temporaries are gone before its bytes are joined
        fh.write(_slots(v, line_end, ends).T.tobytes().translate(None, b"\0"))
