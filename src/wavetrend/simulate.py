"""Synthesis of trend-plus-wavelet-noise processes.

A series of length n is built as

    X_t = T_t + sum_j sum_k sqrt(S_j(k / n)) psi_{j,k}(t) xi_{j,k}

where psi_{j,k} is the level-j discrete wavelet centred on position k (the
same alignment the analysis transform uses), the innovations xi are
independent with mean zero and unit variance, and j runs over all
floor(log2 n) available scales.  The sum over k is circular, which keeps
Var(X_t) = sum_j S_j exactly at every t.

Trend and spectrum may be given numerically (a length-n vector, a J x n
matrix) or functionally (callables on rescaled time), at any length n.
Functional inputs are evaluated on the midpoint grid z = (k + 0.5) / n.
Without n, tlsw_sim reads it from a spectrum matrix, else from a trend
vector.

Innovations are drawn one scale at a time (outer loop over scales, inner
over time) from a single generator seeded once, and every scale row draws
even when its spectrum row is zero.  Runs with the same inputs and seed are
therefore bitwise reproducible, and enabling power at a deeper scale does
not reshuffle the draws of the scales before it.

What draws from one (filter, n, spectrum) share is a NoisePlan: the
amplitude rows sqrt(S_j) and the rfft of each synthesis kernel whose row
has power, computed once.  tlsw_sim draws one stream from a plan; the
trend bootstrap draws blocks of replicate streams from one plan, each in
the same order and with the same arithmetic as one tlsw_sim per replicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeSpectrum,
    SeriesTooShort,
    WavetrendError,
    as_floats,
    check_integer,
)
from .filters import WaveletFilter, wavelet_filter
from .wavelets import discrete_wavelets
from .transforms import centre_shift

__all__ = [
    "sample_trend",
    "sample_spec",
    "tlsw_sim",
    "NoisePlan",
    "max_scales",
    "gaussian_innovations",
    "synthesis_kernel",
]

TrendLike = np.ndarray | Sequence[float] | Callable[[np.ndarray], np.ndarray] | None
SpecLike = np.ndarray | Mapping[int, object]


def max_scales(n: int) -> int:
    """Number of scales a length-n series supports, floor(log2 n)."""
    return check_integer(n, "series length", 2, error=SeriesTooShort).bit_length() - 1


def gaussian_innovations(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal(size)


def _on_grid(values, n: int) -> np.ndarray:
    """values as float64; a callable is evaluated on the midpoint grid (k + 0.5) / n."""
    if callable(values):
        values = values((np.arange(n) + 0.5) / n)
    return as_floats(values, "trend and spectrum values")


def _shape(values) -> tuple[int, ...]:
    """np.shape of values; () for ragged nested lists."""
    try:
        return np.shape(values)
    except ValueError:
        return ()


def sample_trend(trend: TrendLike, n: int) -> np.ndarray:
    """Trend values on the length-n grid; None means no trend."""
    n = check_integer(n, "series length", 1, error=SeriesTooShort)
    if trend is None:
        return np.zeros(n)
    vals = _on_grid(trend, n)
    if vals.shape != (n,):
        raise DimensionMismatch(f"trend has shape {vals.shape}, series has length {n}")
    if not np.isfinite(vals).all():
        raise WavetrendError("trend values must be finite")
    return vals


def _spec_row(entry, n: int) -> np.ndarray:
    row = _on_grid(entry, n)
    if row.ndim == 0 and not callable(entry):
        row = np.full(n, float(row))
    if row.shape != (n,):
        raise DimensionMismatch("spectrum rows must have the series length")
    return row


def sample_spec(spec: SpecLike, n: int) -> np.ndarray:
    """Materialise a spectrum specification as a floor(log2 n) x n matrix.

    Accepts a mapping {scale: row-or-callable} with one-based scales, or
    anything np.array reads as a floor(log2 n) x n matrix.
    """
    levels = max_scales(n)
    if isinstance(spec, Mapping):
        out = np.zeros((levels, n))
        for scale, entry in spec.items():
            scale = check_integer(scale, "scale", 1, levels, DimensionMismatch)
            out[scale - 1] = _spec_row(entry, n)
    else:
        try:
            out = np.array(spec, dtype=np.float64)
        except (TypeError, ValueError):
            raise DimensionMismatch("unsupported spectrum specification") from None
        if out.shape != (levels, n):
            raise DimensionMismatch(
                f"spectrum matrix must be {levels} x {n}, got {out.shape}"
            )
    if not np.all(np.isfinite(out)):
        raise NegativeSpectrum("spectrum contains non-finite values")
    if np.any(out < 0):
        raise NegativeSpectrum("spectrum values must be nonnegative")
    return out


def synthesis_kernel(psi: np.ndarray, filter_length: int, level: int, n: int) -> np.ndarray:
    """psi_level of a filter_length-tap filter on the circular length-n grid, centred."""
    kernel = np.zeros(n)
    pos = (np.arange(psi.size) - centre_shift(filter_length, level)) % n
    np.add.at(kernel, pos, psi)
    return kernel


def check_seed(seed) -> int | None:
    """A seed is None or a nonnegative integer; anything else is a WavetrendError."""
    message = f"seed must be a nonnegative integer or None, got {seed!r}"
    return None if seed is None else check_integer(seed, "seed", 0, message=message)


@dataclass(frozen=True)
class NoisePlan:
    """Everything the noise draws from one spectrum share.

    amplitude[j - 1] is sqrt(S_j); kernels[j - 1] is the rfft of the level-j
    synthesis kernel, or None where row j has no power.
    """

    amplitude: np.ndarray
    kernels: tuple[np.ndarray | None, ...]

    @classmethod
    def build(cls, spec: SpecLike, n: int, filt: WaveletFilter) -> "NoisePlan":
        """Plan for spec (anything sample_spec accepts) on the length-n grid."""
        amplitude = np.sqrt(sample_spec(spec, n))
        psis = discrete_wavelets(filt, amplitude.shape[0])
        kernels = tuple(
            np.fft.rfft(synthesis_kernel(psi, filt.length, j, n)) if row.any() else None
            for j, (psi, row) in enumerate(zip(psis, amplitude), start=1)
        )
        return cls(amplitude=amplitude, kernels=kernels)

    def draw(
        self,
        rngs: Sequence[np.random.Generator],
        innovations: Callable[[np.random.Generator, int], np.ndarray] = gaussian_innovations,
    ) -> np.ndarray:
        """One noise series per generator, as the rows of a (len(rngs), n) array.

        Generators draw as in one-stream draws; a scale with power takes one
        rfft/irfft pair over all rows, so each row is its one-stream draw.
        """
        n = self.amplitude.shape[1]
        noise = np.zeros((len(rngs), n))
        for row, kernel in zip(self.amplitude, self.kernels):
            xi = [np.asarray(innovations(rng, n), dtype=np.float64) for rng in rngs]
            if any(draw.shape != (n,) for draw in xi):
                raise DimensionMismatch("innovation source must return a length-n vector")
            if kernel is not None:
                noise += np.fft.irfft(np.fft.rfft(row * np.array(xi)) * kernel, n)
        return noise


def tlsw_sim(
    trend: TrendLike = None,
    spec: SpecLike | None = None,
    n: int | None = None,
    filter_number: int = 4,
    family: str = "extremal_phase",
    innovations: Callable[[np.random.Generator, int], np.ndarray] | None = None,
    seed: int | np.random.SeedSequence | None = None,
) -> np.ndarray:
    """Draw one realisation of trend plus locally stationary wavelet noise.

    n may be omitted when a spectrum matrix or else a trend vector implies
    it.  spec=None simulates pure trend.  seed is None, a nonnegative
    integer or a SeedSequence.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = check_seed(seed)
    if n is None:  # from a spectrum matrix, else from a one dimensional trend
        spec_shape, trend_shape = _shape(spec), _shape(trend)
        if len(spec_shape) != 2 and len(trend_shape) != 1:
            raise DimensionMismatch("give n: the spectrum is not a matrix, the trend not a vector")
        n = spec_shape[1] if len(spec_shape) == 2 else trend_shape[0]
    n = check_integer(n, "simulation length", 8, error=SeriesTooShort)
    trend_vals = sample_trend(trend, n)
    if spec is None:
        return trend_vals
    plan = NoisePlan.build(spec, n, wavelet_filter(family, filter_number))
    rngs = [np.random.default_rng(seed)]
    return trend_vals + plan.draw(rngs, innovations or gaussian_innovations)[0]
