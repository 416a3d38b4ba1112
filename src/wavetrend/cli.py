"""Batch command-line surface: CSV in, CSV/JSON/SVG out.

Long flags transliterate the R package's dotted argument names into kebab
case (S.do.diff becomes --s-do-diff, T.est.type becomes --t-est-type), so
the methods article doubles as documentation for this tool; a few short
aliases (--diff, --est-type, --ci, --reps, --lag-max) cover the common
knobs.  Commands:

    sim       write a simulated series (built-in scenario or CSV inputs)
    spec      estimate the spectrum of a series
    trend     estimate the trend, optionally with a pointwise interval
    lacf      local autocovariance from the estimated spectrum
    analyze   spectrum + trend + lacv in one pass
    plot      render previously written results as SVG figures

Numbers are written with 17 significant digits so a write-read round trip
is value-exact; every run leaves a metadata.json sidecar recording each
resolved option, which together with the input reproduces the run.  All
file writes are atomic (temp file then rename).  Exit codes: 0 success,
2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import WavetrendError
from .filters import EXTREMAL_PHASE, canonical_family, wavelet_filter
from .lacv import lacv_from_spectrum
from .plots import BY_LEVEL, GLOBAL, lacf_figure, spectrum_figure, trend_figure
from .scenarios import scenario, scenario_names
from .simulate import tlsw_sim
from .spectrum import MEAN, NONE, SpectrumEstimate, estimate_spectrum
from .transforms import DECIMATED, NONDECIMATED, as_series
from .trend import (
    ANALYTIC,
    BOOT_NORMAL,
    BOOT_PERCENTILE,
    HARD,
    LINEAR,
    NONLINEAR,
    EstimatorConfig,
    ThresholdPolicy,
    analytic_ci,
    bootstrap_ci,
    estimate_trend,
)
from .wavelets import autocorrelation_wavelets

_TRANSFORMS = {"dec": DECIMATED, "nondec": NONDECIMATED}
_CI_TYPES = {"analytic": ANALYTIC, "normal": BOOT_NORMAL, "percentile": BOOT_PERCENTILE}


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation; unknown keys are rejected on build.

    Defaults mirror the reference method's documented argument defaults;
    None means "derive from the series length at run time".
    """

    command: str
    input: str | None = None
    out_dir: str = "."
    seed: int | None = None
    scenario: str | None = None
    trend_csv: str | None = None
    spec_csv: str | None = None
    filter_number: int = 4
    family: str = EXTREMAL_PHASE
    s_filter_number: int = 4
    s_family: str = EXTREMAL_PHASE
    s_smooth: bool = True
    s_smooth_type: str = MEAN
    s_binwidth: int | None = None
    s_max_scale: int | None = None
    s_boundary_handle: bool = True
    s_do_diff: bool = False
    s_lag: int = 1
    s_diff_number: int = 1
    t_filter_number: int = 4
    t_family: str = EXTREMAL_PHASE
    t_est_type: str = LINEAR
    t_transform: str = "nondec"
    t_boundary_handle: bool = True
    t_max_scale: int | None = None
    t_ci: bool = False
    t_ci_type: str = "normal"
    t_sig_lvl: float = 0.05
    t_reps: int = 200
    t_thresh_type: str = HARD
    t_thresh_normal: bool = True
    lag_max: int | None = None
    plot_type: str = "all"
    scaling: str = GLOBAL
    lacf_times: tuple[int, ...] | None = None


# ---------------------------------------------------------------- file IO

def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_matrix(path: Path, mat: np.ndarray) -> None:
    rows = (",".join(_g17(v) for v in row) for row in np.atleast_2d(mat))
    _write_atomic(path, "\n".join(rows) + "\n")


def _write_series(path: Path, x: np.ndarray) -> None:
    _write_atomic(path, "value\n" + "\n".join(_g17(v) for v in x) + "\n")


def _write_trend(path: Path, values, ci_lo=None, ci_hi=None) -> None:
    lines = ["t,estimate,lo,hi"]
    has_ci = ci_lo is not None and ci_hi is not None
    for t, v in enumerate(values):
        lo = _g17(ci_lo[t]) if has_ci else ""
        hi = _g17(ci_hi[t]) if has_ci else ""
        lines.append(f"{t},{_g17(v)},{lo},{hi}")
    _write_atomic(path, "\n".join(lines) + "\n")


def _parse_cells(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not rows:
        raise WavetrendError(f"{path} is empty")
    return rows


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_series(path: str | Path) -> np.ndarray:
    """Series CSV: a single value column or time,value; header optional."""
    rows = _parse_cells(Path(path))
    if not all(_is_number(c) for c in rows[0]):
        rows = rows[1:]
    if not rows or len(rows[0]) not in (1, 2):
        raise WavetrendError(f"{path}: expected one or two columns")
    col = -1 if len(rows[0]) == 2 else 0
    try:
        values = np.array([float(r[col]) for r in rows])
    except (ValueError, IndexError) as exc:
        raise WavetrendError(f"{path}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise WavetrendError(f"{path}: values must be finite")
    return values


def read_matrix(path: str | Path) -> np.ndarray:
    rows = _parse_cells(Path(path))
    if not all(_is_number(c) for c in rows[0]):
        rows = rows[1:]
    try:
        mat = np.array([[float(c) for c in r] for r in rows])
    except ValueError as exc:
        raise WavetrendError(f"{path}: {exc}") from exc
    return mat


def read_trend(path: str | Path) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    rows = _parse_cells(Path(path))
    if rows and rows[0][:2] == ["t", "estimate"]:
        rows = rows[1:]
    est = np.array([float(r[1]) for r in rows])
    has_ci = all(len(r) >= 4 and r[2].strip() and r[3].strip() for r in rows)
    if has_ci:
        lo = np.array([float(r[2]) for r in rows])
        hi = np.array([float(r[3]) for r in rows])
        return est, lo, hi
    return est, None, None


# ------------------------------------------------------------- estimation

def _load_series(cfg: RunConfig) -> np.ndarray:
    if not cfg.input:
        raise WavetrendError(f"{cfg.command} needs an input series file")
    return as_series(read_series(cfg.input), 16)


def _spectrum_for(cfg: RunConfig, x: np.ndarray) -> SpectrumEstimate:
    diff = (cfg.s_lag, cfg.s_diff_number) if cfg.s_do_diff else None
    smoother = cfg.s_smooth_type if cfg.s_smooth else NONE
    return estimate_spectrum(
        x,
        filter_number=cfg.s_filter_number,
        family=cfg.s_family,
        levels=cfg.s_max_scale,
        smoother=smoother,
        binwidth=cfg.s_binwidth,
        boundary=cfg.s_boundary_handle,
        diff=diff,
    )


def _spectrum_meta(cfg: RunConfig, est: SpectrumEstimate) -> dict:
    smoother = est.periodogram.smoother
    return {
        "filter_number": est.filter.number,
        "family": est.filter.family,
        "max_scale": est.levels,
        "smooth": cfg.s_smooth,
        "smooth_type": smoother.kind,
        "binwidth": smoother.binwidth,
        "binwidth_clamped": est.binwidth_clamped,
        "boundary_handle": cfg.s_boundary_handle,
        "do_diff": cfg.s_do_diff,
        "lag": cfg.s_lag,
        "diff_number": cfg.s_diff_number,
        "floored": est.floored,
    }


def _trend_config(cfg: RunConfig) -> EstimatorConfig:
    if cfg.t_transform not in _TRANSFORMS:
        raise WavetrendError(f"unknown transform {cfg.t_transform!r}")
    policy = ThresholdPolicy(kind=cfg.t_thresh_type, normal_assumption=cfg.t_thresh_normal)
    return EstimatorConfig(
        method=cfg.t_est_type,
        transform=_TRANSFORMS[cfg.t_transform],
        boundary=cfg.t_boundary_handle,
        levels=cfg.t_max_scale,
        filter_number=cfg.t_filter_number,
        family=canonical_family(cfg.t_family),
        policy=policy,
    )


def _pairing_notes(cfg: RunConfig) -> list[str]:
    notes = []
    if cfg.t_est_type == NONLINEAR and not cfg.s_do_diff:
        notes.append("nonlinear trend paired with undifferenced spectrum; differenced recommended")
    if cfg.t_est_type == LINEAR and cfg.s_do_diff:
        notes.append("linear trend paired with differenced spectrum; direct recommended")
    return notes


def _estimate_all(cfg: RunConfig, x: np.ndarray, want_spectrum: bool = False):
    """Shared spectrum/trend/interval estimation for trend and analyze."""
    config = _trend_config(cfg)
    needed = want_spectrum or cfg.t_ci or cfg.t_est_type == NONLINEAR
    spectrum = _spectrum_for(cfg, x) if needed else None
    floored = None
    if cfg.t_est_type == NONLINEAR:
        # an unfloored estimate can zero the threshold in patches and let
        # raw noise through; the thresholder always gets the floored copy
        floored = replace(spectrum, S=np.maximum(spectrum.S, 0.0), floored=True)
    fit = estimate_trend(x, config, spectrum=floored)
    lag_max = cfg.lag_max
    lacv = None
    if cfg.t_ci:
        if cfg.t_ci_type not in _CI_TYPES:
            raise WavetrendError(f"unknown interval type {cfg.t_ci_type!r}")
        ci = _CI_TYPES[cfg.t_ci_type]
        if ci == ANALYTIC:
            acw = autocorrelation_wavelets(spectrum.filter, spectrum.levels)
            lacv = lacv_from_spectrum(spectrum, acw, lag_max=lag_max)
            fit = analytic_ci(x, fit, lacv, alpha=cfg.t_sig_lvl)
        else:
            seed = cfg.seed if cfg.seed is not None else 0
            fit = bootstrap_ci(
                x,
                fit,
                floored if floored is not None else spectrum,
                reps=cfg.t_reps,
                alpha=cfg.t_sig_lvl,
                ci_type=ci,
                seed=seed,
            )
    return spectrum, fit, lacv


def _trend_meta(cfg: RunConfig, fit) -> dict:
    return {
        "est_type": cfg.t_est_type,
        "transform": cfg.t_transform,
        "filter_number": fit.filter.number,
        "family": fit.filter.family,
        "max_scale": fit.levels,
        "boundary_handle": cfg.t_boundary_handle,
        "thresh_type": cfg.t_thresh_type,
        "thresh_normal": cfg.t_thresh_normal,
        "spectrum_floored_for_threshold": cfg.t_est_type == NONLINEAR,
        "ci": cfg.t_ci,
        "ci_type": cfg.t_ci_type if cfg.t_ci else None,
        "sig_lvl": cfg.t_sig_lvl if cfg.t_ci else None,
        "reps": fit.reps,
    }


# ---------------------------------------------------------------- commands

def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_metadata(out: Path, meta: dict) -> None:
    _write_atomic(out / "metadata.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_sim(cfg: RunConfig) -> None:
    out = _out_dir(cfg)
    meta = {"command": "sim", "seed": cfg.seed, "out_dir": cfg.out_dir}
    if cfg.scenario:
        sc = scenario(cfg.scenario)
        x = sc.simulate(seed=cfg.seed)
        meta.update(
            scenario=sc.name,
            n=sc.length,
            filter_number=sc.filter_number,
            family=sc.family,
        )
    elif cfg.trend_csv or cfg.spec_csv:
        trend = read_series(cfg.trend_csv) if cfg.trend_csv else None
        spec = read_matrix(cfg.spec_csv) if cfg.spec_csv else None
        x = tlsw_sim(
            trend=trend,
            spec=spec,
            filter_number=cfg.filter_number,
            family=cfg.family,
            seed=cfg.seed,
        )
        meta.update(
            scenario=None,
            n=int(x.size),
            filter_number=cfg.filter_number,
            family=canonical_family(cfg.family),
            trend_csv=cfg.trend_csv,
            spec_csv=cfg.spec_csv,
        )
    else:
        raise WavetrendError("sim needs --scenario or --trend-csv/--spec-csv")
    _write_series(out / "series.csv", x)
    _write_metadata(out, meta)


def cmd_spec(cfg: RunConfig) -> None:
    out = _out_dir(cfg)
    x = _load_series(cfg)
    est = _spectrum_for(cfg, x)
    _write_matrix(out / "spectrum.csv", est.S)
    _write_metadata(out, {
        "command": "spec",
        "input": cfg.input,
        "out_dir": cfg.out_dir,
        "n": int(x.size),
        "seed": cfg.seed,
        "spectrum": _spectrum_meta(cfg, est),
    })


def cmd_trend(cfg: RunConfig) -> None:
    out = _out_dir(cfg)
    x = _load_series(cfg)
    spectrum, fit, lacv = _estimate_all(cfg, x)
    _write_trend(out / "trend.csv", fit.values, fit.ci_lo, fit.ci_hi)
    meta = {
        "command": "trend",
        "input": cfg.input,
        "out_dir": cfg.out_dir,
        "n": int(x.size),
        "seed": cfg.seed,
        "trend": _trend_meta(cfg, fit),
        "notes": _pairing_notes(cfg),
    }
    if spectrum is not None:
        meta["spectrum"] = _spectrum_meta(cfg, spectrum)
    if lacv is not None:
        meta["lacv"] = {"lag_max": lacv.lag_max}
    _write_metadata(out, meta)


def cmd_lacf(cfg: RunConfig) -> None:
    out = _out_dir(cfg)
    x = _load_series(cfg)
    est = _spectrum_for(cfg, x)
    acw = autocorrelation_wavelets(est.filter, est.levels)
    lacv = lacv_from_spectrum(est, acw, lag_max=cfg.lag_max)
    _write_matrix(out / "lacv.csv", lacv.lacv)
    _write_metadata(out, {
        "command": "lacf",
        "input": cfg.input,
        "out_dir": cfg.out_dir,
        "n": int(x.size),
        "seed": cfg.seed,
        "spectrum": _spectrum_meta(cfg, est),
        "lacv": {"lag_max": lacv.lag_max},
    })


def cmd_analyze(cfg: RunConfig) -> None:
    out = _out_dir(cfg)
    x = _load_series(cfg)
    spectrum, fit, lacv = _estimate_all(cfg, x, want_spectrum=True)
    if lacv is None:
        acw = autocorrelation_wavelets(spectrum.filter, spectrum.levels)
        lacv = lacv_from_spectrum(spectrum, acw, lag_max=cfg.lag_max)
    _write_matrix(out / "spectrum.csv", spectrum.S)
    _write_trend(out / "trend.csv", fit.values, fit.ci_lo, fit.ci_hi)
    _write_matrix(out / "lacv.csv", lacv.lacv)
    _write_metadata(out, {
        "command": "analyze",
        "input": cfg.input,
        "out_dir": cfg.out_dir,
        "n": int(x.size),
        "seed": cfg.seed,
        "spectrum": _spectrum_meta(cfg, spectrum),
        "trend": _trend_meta(cfg, fit),
        "lacv": {"lag_max": lacv.lag_max},
        "notes": _pairing_notes(cfg),
    })


def cmd_plot(cfg: RunConfig) -> None:
    out = _out_dir(cfg)
    wanted = ("trend", "spec", "lacf") if cfg.plot_type == "all" else (cfg.plot_type,)
    explicit = cfg.plot_type != "all"
    written = []

    trend_path = out / "trend.csv"
    if "trend" in wanted and (explicit or trend_path.exists()):
        est, lo, hi = read_trend(trend_path)
        if cfg.input:
            data = read_series(cfg.input)
        elif (out / "series.csv").exists():
            data = read_series(out / "series.csv")
        else:
            data = est
        _write_atomic(out / "trend.svg", trend_figure(data, est, lo, hi))
        written.append("trend.svg")

    spec_path = out / "spectrum.csv"
    if "spec" in wanted and (explicit or spec_path.exists()):
        S = read_matrix(spec_path)
        _write_atomic(out / "spectrum.svg", spectrum_figure(S, scaling=cfg.scaling))
        written.append("spectrum.svg")

    lacv_path = out / "lacv.csv"
    if "lacf" in wanted and (explicit or lacv_path.exists()):
        lacv = read_matrix(lacv_path)
        n = lacv.shape[0]
        times = list(cfg.lacf_times) if cfg.lacf_times else [n // 4, n // 2, 3 * n // 4]
        _write_atomic(out / "lacf.svg", lacf_figure(lacv, times))
        written.append("lacf.svg")

    if not written:
        raise FileNotFoundError(f"no result CSVs found in {out}")


_COMMANDS = {
    "sim": cmd_sim,
    "spec": cmd_spec,
    "trend": cmd_trend,
    "lacf": cmd_lacf,
    "analyze": cmd_analyze,
    "plot": cmd_plot,
}


# ------------------------------------------------------------------ parser

def _add_out_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=".", help="directory for outputs (default: .)")
    p.add_argument("--seed", type=int, default=None, help="integer seed for any randomness")


def _add_spec_opts(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("spectrum options")
    g.add_argument("--s-filter-number", type=int, default=4)
    g.add_argument("--s-family", default=EXTREMAL_PHASE)
    g.add_argument("--s-smooth", action=argparse.BooleanOptionalAction, default=True)
    g.add_argument("--s-smooth-type", choices=("mean", "median", "epan"), default="mean")
    g.add_argument("--s-binwidth", type=int, default=None)
    g.add_argument("--s-max-scale", type=int, default=None)
    g.add_argument("--s-boundary-handle", action=argparse.BooleanOptionalAction, default=True)
    g.add_argument("--s-do-diff", action="store_true", default=False)
    g.add_argument("--s-lag", type=int, default=1)
    g.add_argument("--s-diff-number", type=int, default=1)
    g.add_argument("--diff", type=int, metavar="LAG", dest="diff_shortcut", default=None,
                   help="shorthand for --s-do-diff --s-lag LAG")


def _add_trend_opts(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("trend options")
    g.add_argument("--t-filter-number", type=int, default=4)
    g.add_argument("--t-family", default=EXTREMAL_PHASE)
    g.add_argument("--t-est-type", "--est-type", dest="t_est_type",
                   choices=(LINEAR, NONLINEAR), default=LINEAR)
    g.add_argument("--t-transform", choices=("dec", "nondec"), default="nondec")
    g.add_argument("--t-boundary-handle", action=argparse.BooleanOptionalAction, default=True)
    g.add_argument("--t-max-scale", type=int, default=None)
    g.add_argument("--t-ci", action="store_true", default=False)
    g.add_argument("--t-ci-type", choices=tuple(_CI_TYPES), default="normal")
    g.add_argument("--ci", dest="ci_shortcut", choices=tuple(_CI_TYPES), default=None,
                   help="shorthand for --t-ci --t-ci-type TYPE")
    g.add_argument("--t-sig-lvl", type=float, default=0.05)
    g.add_argument("--t-reps", "--reps", dest="t_reps", type=int, default=200)
    g.add_argument("--t-thresh-type", choices=("hard", "soft"), default="hard")
    g.add_argument("--t-thresh-normal", action=argparse.BooleanOptionalAction, default=True)


def _add_lag_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lag-max", "--t-lacf-max-lag", dest="lag_max", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavetrend",
        description="Trend and spectrum estimation for locally stationary wavelet processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim", help="simulate a trend + LSW noise series")
    p.add_argument("--scenario", choices=scenario_names(), default=None)
    p.add_argument("--trend-csv", default=None, help="trend vector CSV")
    p.add_argument("--spec-csv", default=None, help="spectrum matrix CSV (levels x n)")
    p.add_argument("--filter-number", type=int, default=4)
    p.add_argument("--family", default=EXTREMAL_PHASE)
    _add_out_opts(p)

    for name, extras in (
        ("spec", (_add_spec_opts,)),
        ("trend", (_add_spec_opts, _add_trend_opts, _add_lag_opt)),
        ("lacf", (_add_spec_opts, _add_lag_opt)),
        ("analyze", (_add_spec_opts, _add_trend_opts, _add_lag_opt)),
    ):
        p = sub.add_parser(name, help=f"{name} a series from CSV")
        p.add_argument("input", help="series CSV (value column, optional time column)")
        _add_out_opts(p)
        for add in extras:
            add(p)

    p = sub.add_parser("plot", help="render result CSVs as SVG")
    p.add_argument("--input", default=None, help="series CSV for the data line")
    p.add_argument("--plot-type", choices=("trend", "spec", "lacf", "all"), default="all")
    p.add_argument("--scaling", choices=(GLOBAL, BY_LEVEL), default=GLOBAL)
    p.add_argument("--lacf-times", type=int, nargs="+", default=None)
    _add_out_opts(p)

    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    d = vars(ns).copy()
    diff = d.pop("diff_shortcut", None)
    if diff is not None:
        d["s_do_diff"] = True
        d["s_lag"] = diff
    ci = d.pop("ci_shortcut", None)
    if ci is not None:
        d["t_ci"] = True
        d["t_ci_type"] = ci
    if d.get("lacf_times") is not None:
        d["lacf_times"] = tuple(d["lacf_times"])
    return RunConfig(**d)


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    cfg = config_from_args(ns)
    try:
        _COMMANDS[cfg.command](cfg)
    except WavetrendError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
