"""Built-in demonstration scenarios.

Two canned processes exercise the full model surface: x1 is a cubic trend
with power at scales 2 and 4 only (one scale time-varying, one flat), x2
is a sharper mix, a sinusoid riding a broken-linear trend with power at
scales 1, 3, and 5 including a localised bump at scale 3.  Functional
pieces of x1 are evaluated on the midpoint grid z = (k + 0.5)/n used for
functional simulator inputs; x2 follows its original recipe, built from
vectors on the endpoint-inclusive grid linspace(0, 1, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .filters import EXTREMAL_PHASE
from .simulate import max_scales, tlsw_sim

X1 = "x1"
X2 = "x2"


@dataclass(frozen=True)
class Scenario:
    """A named trend/spectrum pair ready to simulate or compare against."""

    name: str
    length: int
    trend: np.ndarray = field(repr=False)
    spectrum: np.ndarray = field(repr=False)
    filter_number: int = 4
    family: str = EXTREMAL_PHASE

    def simulate(self, seed: int | None = None) -> np.ndarray:
        return tlsw_sim(trend=self.trend, spec=self.spectrum, n=self.length,
                        filter_number=self.filter_number, family=self.family, seed=seed)


def _x1() -> Scenario:
    n = 512
    z = (np.arange(n) + 0.5) / n
    trend = 3.0 * (32.0 * z**3 - 48.0 * z**2 + 22.0 * z - 3.0)
    spec = np.zeros((max_scales(n), n))
    spec[1] = 2.0 + 12.0 * z - 12.0 * z**2
    spec[3] = 2.0
    return Scenario(name=X1, length=n, trend=trend, spectrum=spec)


def _x2() -> Scenario:
    n = 1024
    index = np.linspace(0.0, 1.0, n)
    trend = 5.0 * np.sin(np.pi * 6.0 * index) + np.concatenate(
        [np.linspace(0.0, 10.0, 300), np.linspace(10.0, -4.0, 724)]
    )
    spec = np.zeros((max_scales(n), n))
    spec[0] = np.linspace(2.0, 10.0, n)
    spec[2] = np.concatenate(
        [
            np.ones(200),
            np.linspace(1.0, 6.0, 200),
            np.linspace(6.0, 1.0, 200),
            np.ones(424),
        ]
    )
    spec[4] = 2.0 + 4.0 * np.sin(4.0 * np.pi * index) ** 2
    return Scenario(name=X2, length=n, trend=trend, spectrum=spec)


_BUILDERS = {X1: _x1, X2: _x2}


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def scenario(name: str) -> Scenario:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise DimensionMismatch(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None
