"""Synthesis of trend-plus-wavelet-noise processes.

A series of length n is built as

    X_t = T_t + sum_j sum_k sqrt(S_j(k / n)) psi_{j,k}(t) xi_{j,k}

where psi_{j,k} is the level-j discrete wavelet centred on position k (the
same alignment the analysis transform uses), the innovations xi are
independent with mean zero and unit variance, and j runs over all
floor(log2 n) available scales.  The sum over k is circular, which keeps
Var(X_t) = sum_j S_j exactly at every t.

Trend and spectrum may be given numerically (a length-n vector, a J x n
matrix) or functionally (callables on rescaled time).  Functional inputs are
evaluated on the midpoint grid z = (k + 0.5) / n and require n to be a power
of two; numeric inputs allow any length.

Innovations are drawn one scale at a time (outer loop over scales, inner
over time) from a single generator seeded once, and every scale row draws
even when its spectrum row is zero.  Runs with the same inputs and seed are
therefore bitwise reproducible, and enabling power at a deeper scale does
not reshuffle the draws of the scales before it.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeSpectrum,
    NonDyadicFunctionalSpec,
    SeriesTooShort,
    WavetrendError,
)
from .filters import WaveletFilter, wavelet_filter
from .wavelets import DiscreteWavelet, discrete_wavelets
from .transforms import centre_shift

__all__ = [
    "sample_trend",
    "sample_spec",
    "tlsw_sim",
    "max_scales",
    "gaussian_innovations",
    "synthesis_kernel",
]

TrendLike = np.ndarray | Sequence[float] | Callable[[np.ndarray], np.ndarray] | None
SpecLike = (
    np.ndarray
    | Mapping[int, object]
    | Sequence[object]
)


def max_scales(n: int) -> int:
    """Number of scales a length-n series supports."""
    if n < 2:
        raise SeriesTooShort("need at least 2 observations")
    return int(np.floor(np.log2(n)))


def gaussian_innovations(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal(size)


def _midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def _require_dyadic(n: int, what: str) -> None:
    if n & (n - 1):
        raise NonDyadicFunctionalSpec(
            f"functional {what} inputs need a power-of-two length, got {n}"
        )


def sample_trend(trend: TrendLike, n: int) -> np.ndarray:
    """Trend values on the length-n grid; None means no trend."""
    if trend is None:
        return np.zeros(n)
    if callable(trend):
        _require_dyadic(n, "trend")
        vals = np.asarray(trend(_midpoints(n)), dtype=np.float64)
        if vals.shape != (n,):
            raise DimensionMismatch("trend callable must map the grid to a same-length vector")
        return vals
    vals = np.asarray(trend, dtype=np.float64)
    if vals.shape != (n,):
        raise DimensionMismatch(f"trend vector has length {vals.size}, series has {n}")
    return vals


def _spec_row(entry, n: int) -> np.ndarray:
    if callable(entry):
        _require_dyadic(n, "spectrum")
        row = np.asarray(entry(_midpoints(n)), dtype=np.float64)
    else:
        row = np.asarray(entry, dtype=np.float64)
        if row.ndim == 0:
            row = np.full(n, float(row))
    if row.shape != (n,):
        raise DimensionMismatch("spectrum rows must have the series length")
    return row


def sample_spec(spec: SpecLike, n: int) -> np.ndarray:
    """Materialise a spectrum specification as a floor(log2 n) x n matrix.

    Accepts a full matrix, a mapping {scale: row-or-callable} with one-based
    scales, or a sequence with one entry per scale where None marks a scale
    without power.
    """
    levels = max_scales(n)
    if isinstance(spec, np.ndarray):
        mat = np.asarray(spec, dtype=np.float64)
        if mat.shape != (levels, n):
            raise DimensionMismatch(
                f"spectrum matrix must be {levels} x {n}, got {mat.shape}"
            )
        out = mat.copy()
    elif isinstance(spec, Mapping):
        out = np.zeros((levels, n))
        for scale, entry in spec.items():
            scale = int(scale)
            if not 1 <= scale <= levels:
                raise DimensionMismatch(
                    f"scale {scale} outside 1..{levels} for length {n}"
                )
            out[scale - 1] = _spec_row(entry, n)
    elif isinstance(spec, Sequence):
        if len(spec) != levels:
            raise DimensionMismatch(
                f"spectrum list must have {levels} entries, got {len(spec)}"
            )
        out = np.zeros((levels, n))
        for idx, entry in enumerate(spec):
            if entry is None:
                continue
            out[idx] = _spec_row(entry, n)
    else:
        raise DimensionMismatch("unsupported spectrum specification")
    if not np.all(np.isfinite(out)):
        raise NegativeSpectrum("spectrum contains non-finite values")
    if np.any(out < 0):
        raise NegativeSpectrum("spectrum values must be nonnegative")
    return out


def synthesis_kernel(dw: DiscreteWavelet, level: int, n: int) -> np.ndarray:
    """psi_level folded onto the circular length-n grid, centre aligned."""
    psi = dw.psi(level)
    kernel = np.zeros(n)
    pos = (np.arange(psi.size) - centre_shift(dw.filter.length, level)) % n
    np.add.at(kernel, pos, psi)
    return kernel


def check_seed(seed) -> None:
    """numpy seeds with nonnegative integers; a negative one is a WavetrendError."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise WavetrendError(f"seed must be a nonnegative integer, got {seed}")


def tlsw_sim(
    trend: TrendLike = None,
    spec: SpecLike | None = None,
    n: int | None = None,
    filter_number: int = 4,
    family: str = "extremal_phase",
    innovations: Callable[[np.random.Generator, int], np.ndarray] | None = None,
    seed: int | np.random.SeedSequence | None = None,
    filt: WaveletFilter | None = None,
) -> np.ndarray:
    """Draw one realisation of trend plus locally stationary wavelet noise.

    n may be omitted when it is implied by a vector trend or a matrix
    spectrum.  spec=None simulates pure trend.
    """
    if n is None:
        if isinstance(spec, np.ndarray):
            n = spec.shape[1]
        elif trend is not None and not callable(trend):
            n = len(trend)
        else:
            raise DimensionMismatch("series length n is required for functional inputs")
    n = int(n)
    if n < 8:
        raise SeriesTooShort(f"simulation needs n >= 8, got {n}")
    levels = max_scales(n)
    trend_vals = sample_trend(trend, n)
    if spec is None:
        return trend_vals
    smat = sample_spec(spec, n)
    if filt is None:
        filt = wavelet_filter(family, filter_number)
    draw = innovations if innovations is not None else gaussian_innovations
    check_seed(seed)
    rng = np.random.default_rng(seed)
    dw = discrete_wavelets(filt, levels)
    amplitude = np.sqrt(smat)
    noise = np.zeros(n)
    for j in range(1, levels + 1):
        xi = np.asarray(draw(rng, n), dtype=np.float64)
        if xi.shape != (n,):
            raise DimensionMismatch("innovation source must return a length-n vector")
        row = amplitude[j - 1]
        if not row.any():
            continue
        kernel = synthesis_kernel(dw, j, n)
        noise += np.fft.irfft(np.fft.rfft(row * xi) * np.fft.rfft(kernel), n)
    return trend_vals + noise
