"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Every op is one ``analyze`` of one series.  Three workloads call
``wavetrend.cli.main(argv)`` in process on a CSV the benchmark wrote; one
calls the library steps ``analyze`` runs, without CSV input or output.
Inputs are simulated from a known trend and spectrum, so every op's output
is checked against the truth as well as for finiteness and interval order.

Functions of the package are looked up through their modules at call time
(``wt.estimate_spectrum``, ``cli.main``) so that the traced run's wrappers,
which replace module attributes, see these calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import wavetrend as wt
import wavetrend.cli as cli


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    source: str                      # "x1" / "x2" scenario, or "x2_like" generated at length n
    argv: tuple[str, ...] | None     # analyze options; None runs the library steps
    # Upper limits on the interior RMSE of trend and spectrum against the
    # generator's truth.  Fixed at the seed commit by calibrate.py to about
    # twice the largest error over 300 seeds (60 for long_cli, 30 for
    # long_lib); a wrong alignment, filter or correction misses them by far.
    trend_tol: float
    spec_tol: float


# x2_boot: the bootstrap loop (200 x tlsw_sim + nondecimated transform pair
#   + variance matrix) does the work.
# x1_analytic: the only user of the decimated transforms, through n + 1
#   forward/inverse pairs, plus the O(n^2 lag) variance loop.
# long_lib: smoothing (binwidth 1537) and transforms on huge arrays; no
#   bootstrap, no CSV.
# long_cli: the same estimation layers under CSV read and 17-digit write,
#   which take most of the time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("x2_boot", 1024, "x2",
                 ("--est-type", "nonlinear", "--diff", "1", "--ci", "normal", "--reps", "200"),
                 trend_tol=1.2, spec_tol=8.0),
        Workload("x1_analytic", 512, "x1", ("--t-transform", "dec", "--ci", "analytic"),
                 trend_tol=0.3, spec_tol=3.0),
        Workload("long_lib", 65536, "x2_like", None, trend_tol=0.1, spec_tol=1.0),
        Workload("long_cli", 16384, "x2_like", (), trend_tol=0.05, spec_tol=1.5),
    )
}

# Smaller variants for the benchmark's self-check: same code paths, seconds not minutes.
TINY = {
    "x2_boot": {"argv": ("--est-type", "nonlinear", "--diff", "1", "--ci", "normal", "--reps", "40")},
    "x1_analytic": {},
    "long_lib": {"n": 1024, "trend_tol": 1.5, "spec_tol": 6.0},
    "long_cli": {"n": 1024, "trend_tol": 0.7, "spec_tol": 6.6},
}


def workload(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if tiny else w


# ----------------------------------------------------------------- inputs

def _x2_like_trend(z):
    # sinusoid on a broken-linear ramp, as in scenario x2
    return 5.0 * np.sin(6.0 * np.pi * z) + np.interp(z, [0.0, 300 / 1024, 1.0], [0.0, 10.0, -4.0])


def _x2_like_spec() -> dict:
    # power at scales 1, 3 and 5: linear ramp, localised bump, sin^2 oscillation
    return {
        1: lambda z: 2.0 + 8.0 * z,
        3: lambda z: np.interp(z, [0.0, 0.195, 0.39, 0.586, 1.0], [1.0, 1.0, 6.0, 1.0, 1.0]),
        5: lambda z: 2.0 + 4.0 * np.sin(4.0 * np.pi * z) ** 2,
    }


@dataclass(frozen=True)
class Input:
    x: np.ndarray
    trend: np.ndarray     # true trend on the series grid
    spec: np.ndarray      # true spectrum, floor(log2 n) x n
    boot_seed: int        # --seed of the op, for the bootstrap streams


def make_inputs(w: Workload, seed: int, count: int) -> list[Input]:
    """count distinct series for one run, all determined by seed."""
    # the workload name enters the entropy, so workloads never share series
    streams = np.random.SeedSequence([seed, *w.name.encode()]).spawn(count)
    out = []
    for ss in streams:
        sim_seed, boot_seed = (int(v) for v in ss.generate_state(2))
        if w.source in ("x1", "x2"):
            sc = wt.scenario(w.source)
            x = sc.simulate(seed=sim_seed)
            trend, spec = sc.trend, sc.spectrum
        else:
            spec_fns = _x2_like_spec()
            x = wt.tlsw_sim(trend=_x2_like_trend, spec=spec_fns, n=w.n, seed=sim_seed)
            trend = wt.sample_trend(_x2_like_trend, w.n)
            spec = wt.sample_spec(spec_fns, w.n)
        out.append(Input(x=x, trend=trend, spec=spec, boot_seed=boot_seed))
    return out


def write_series(path: Path, x: np.ndarray) -> None:
    path.write_text("value\n" + "\n".join(format(float(v), ".17g") for v in x) + "\n",
                    encoding="utf-8")


# -------------------------------------------------------------------- ops

@dataclass
class Output:
    trend: np.ndarray
    lo: np.ndarray | None
    hi: np.ndarray | None
    S: np.ndarray
    lacv: np.ndarray
    blobs: dict[str, bytes] | None = None   # exact bytes, for the rerun comparison
    bytes_written: int = 0


def lib_analyze(x: np.ndarray):
    """The library steps analyze runs with a differenced spectrum and nonlinear trend."""
    spec = wt.estimate_spectrum(x, diff=(1, 1))
    floored = replace(spec, S=np.maximum(spec.S, 0.0), floored=True)
    fit = wt.estimate_trend(x, wt.EstimatorConfig(method=wt.NONLINEAR), spectrum=floored)
    acw = wt.autocorrelation_wavelets(spec.filter, spec.levels)
    lacv = wt.lacv_from_spectrum(spec, acw)
    return spec, fit, lacv


def cli_argv(w: Workload, csv: Path, out_dir: Path, inp: Input) -> list[str]:
    return ["analyze", str(csv), "--out-dir", str(out_dir), *w.argv, "--seed", str(inp.boot_seed)]


OUT_FILES = ("spectrum.csv", "trend.csv", "lacv.csv", "metadata.json")


def read_cli_output(out_dir: Path, keep_bytes: bool) -> Output:
    blobs = {name: (out_dir / name).read_bytes() for name in OUT_FILES}
    t = np.genfromtxt(out_dir / "trend.csv", delimiter=",", skip_header=1)
    has_ci = not np.all(np.isnan(t[:, 2]))
    return Output(
        trend=t[:, 1],
        lo=t[:, 2] if has_ci else None,
        hi=t[:, 3] if has_ci else None,
        S=np.loadtxt(out_dir / "spectrum.csv", delimiter=",", ndmin=2),
        lacv=np.loadtxt(out_dir / "lacv.csv", delimiter=",", ndmin=2),
        blobs=blobs if keep_bytes else None,
        bytes_written=sum(len(b) for b in blobs.values()),
    )


def lib_output(result, keep_bytes: bool) -> Output:
    spec, fit, lacv = result
    arrays = {"S": spec.S, "trend": fit.values, "lacv": lacv.lacv}
    return Output(
        trend=fit.values, lo=fit.ci_lo, hi=fit.ci_hi, S=spec.S, lacv=lacv.lacv,
        blobs={k: np.ascontiguousarray(v).tobytes() for k, v in arrays.items()} if keep_bytes else None,
    )


# ----------------------------------------------------------------- checks

def errors(out: Output, inp: Input) -> tuple[float, float]:
    """Interior RMSE of trend and spectrum against the truth."""
    n = inp.x.size
    mid = slice(n // 4, 3 * n // 4)
    trend_err = float(np.sqrt(np.mean((out.trend[mid] - inp.trend[mid]) ** 2)))
    levels = out.S.shape[0]
    spec_err = float(np.sqrt(np.mean((out.S[:, mid] - inp.spec[:levels, mid]) ** 2)))
    return trend_err, spec_err


def check(w: Workload, out: Output, inp: Input) -> list[str]:
    """Problems found in one op's output; empty when it is correct."""
    n = inp.x.size
    bad = []
    if out.trend.shape != (n,) or not np.all(np.isfinite(out.trend)):
        bad.append("trend not finite or wrong length")
    if w.argv is not None and "--ci" in w.argv:
        if out.lo is None or out.hi is None:
            bad.append("interval missing")
        elif not (np.all(np.isfinite(out.lo)) and np.all(np.isfinite(out.hi))):
            bad.append("interval not finite")
        elif not (np.all(out.lo <= out.trend) and np.all(out.trend <= out.hi)):
            bad.append("interval does not contain the estimate")
    lag_max = wt.default_lag_max(n)
    if out.lacv.shape != (n, lag_max + 1) or not np.all(np.isfinite(out.lacv)):
        bad.append("lacv not finite or wrong shape")
    if out.S.ndim != 2 or out.S.shape[1] != n or not np.all(np.isfinite(out.S)):
        bad.append("spectrum not finite or wrong shape")
    if bad:
        return bad
    trend_err, spec_err = errors(out, inp)
    if not trend_err <= w.trend_tol:
        bad.append(f"trend RMSE {trend_err:.3g} > {w.trend_tol}")
    if not spec_err <= w.spec_tol:
        bad.append(f"spectrum RMSE {spec_err:.3g} > {w.spec_tol}")
    return bad
