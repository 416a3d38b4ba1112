"""Local autocovariance and autocorrelation from a spectrum estimate.

The local autocovariance at rescaled time z and lag tau is the spectrum
mixed through the autocorrelation wavelets, c(z, tau) =
sum_j S_j(z) Psi_j(tau) over the filter and depth of the spectrum estimate.
Negative or zero variance estimates can occur because the spectrum
correction is unconstrained; the autocorrelation is then reported as NaN
for that time point rather than failing the run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, MatrixMismatch, WavetrendError, as_floats, check_integer
from .spectrum import SpectrumEstimate
from .transforms import _BLOCK_ELEMENTS
from .wavelets import AutocorrelationWavelet, autocorrelation_wavelets


@dataclass(frozen=True)
class LacvEstimate:
    """Autocovariance on the time x lag grid; autocorrelation on access.

    lacv[t, tau] estimates c(t/n, tau) for tau = 0..lag_max; lacr rows with
    nonpositive lag-0 variance are NaN.
    """

    lacv: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.lacv.ndim != 2 or self.lacv.shape[1] > self.lacv.shape[0]:
            raise DimensionMismatch(
                f"lacv of shape {self.lacv.shape} is not n x (lag_max + 1), lag_max < n"
            )

    @property
    def lag_max(self) -> int:
        return self.lacv.shape[1] - 1

    @property
    def lacr(self) -> np.ndarray:
        """lacv over its lag-0 column; computed on every read, not stored."""
        var = self.lacv[:, :1]
        # np.divide into a NaN-filled array: np.where would hold one more (n, lags) array
        return np.divide(self.lacv, var, out=np.full_like(self.lacv, np.nan), where=var > 0)


def default_lag_max(n: int) -> int:
    """floor(10 ln n), capped at n - 1, the longest lag of a length-n series."""
    return min(int(math.floor(10.0 * math.log(n))), n - 1)


def lacv_from_spectrum(
    spectrum: SpectrumEstimate | np.ndarray,
    acw: AutocorrelationWavelet | None = None,
    lag_max: int | None = None,
) -> LacvEstimate:
    """Mix a spectrum matrix into autocovariance via Psi_j(tau).

    Accepts a SpectrumEstimate, whose filter and depth fix acw when it is
    omitted and whose filter a given acw must share, or a plain (levels, n)
    matrix, which needs acw; lag_max lies in 0..n - 1 (default_lag_max(n)).
    """
    if isinstance(spectrum, SpectrumEstimate):
        if acw is None:
            acw = autocorrelation_wavelets(spectrum.filter, spectrum.levels)
        elif acw.filter.label != spectrum.filter.label:
            raise MatrixMismatch(
                f"autocorrelation wavelets of {acw.filter.label} "
                f"for a spectrum estimated with {spectrum.filter.label}"
            )
        S = spectrum.S
    elif acw is None:
        raise WavetrendError("a plain spectrum matrix needs its autocorrelation wavelets")
    else:
        S = as_floats(spectrum, "spectrum values")
    if S.ndim != 2:
        raise DimensionMismatch("expected a levels x n spectrum matrix")
    levels, n = S.shape
    if acw.levels < levels:
        raise DimensionMismatch(
            f"autocorrelation wavelets cover {acw.levels} levels, spectrum has {levels}"
        )
    if lag_max is None:
        lag_max = default_lag_max(n)
    else:
        lag_max = check_integer(lag_max, "lag_max", 0, n - 1, DimensionMismatch)
    psi = acw.window(levels, lag_max)[:, lag_max:]  # tau = 0, 1, ..., lag_max
    # einsum, not BLAS: a BLAS product's sums change with its thread count
    St, lacv = np.ascontiguousarray(S.T), np.empty((n, lag_max + 1))
    block = max(1, _BLOCK_ELEMENTS // (lag_max + 1))
    for r in range(0, n, block):
        np.einsum("tj,jl->tl", St[r : r + block], psi, out=lacv[r : r + block])
    if np.any(lacv[:, 0] <= 0):
        warnings.warn(
            "nonpositive variance estimates; autocorrelation set to NaN there",
            RuntimeWarning,
            stacklevel=2,
        )
    return LacvEstimate(lacv=lacv)
