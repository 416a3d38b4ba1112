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
from pathlib import Path

import numpy as np

from .errors import WavetrendError
from .filters import EXTREMAL_PHASE, canonical_family
from .lacv import lacv_from_spectrum
from .plots import BY_LEVEL, GLOBAL, lacf_figure, spectrum_figure, trend_figure
from .scenarios import scenario, scenario_names
from .simulate import tlsw_sim
from .spectrum import NONE, SpectrumEstimate, estimate_spectrum
from .transforms import DECIMATED, NONDECIMATED, as_series
from .trend import (
    ANALYTIC,
    BOOT_NORMAL,
    BOOT_PERCENTILE,
    CI_NONE,
    LINEAR,
    NONLINEAR,
    EstimatorConfig,
    ThresholdPolicy,
    analytic_ci,
    bootstrap_ci,
    estimate_trend,
)

_TRANSFORMS = {"dec": DECIMATED, "nondec": NONDECIMATED}
_CI_TYPES = {"analytic": ANALYTIC, "normal": BOOT_NORMAL, "percentile": BOOT_PERCENTILE}


# ---------------------------------------------------------------- file IO

def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: Path, rows: np.ndarray, fmt: str, header: str = "") -> None:
    """Rows (or one value per line for 1-D rows) in fmt, written atomically."""
    tmp = path.with_name(path.name + ".tmp")
    np.savetxt(tmp, rows, fmt=fmt, delimiter=",", header=header, comments="")
    os.replace(tmp, path)


def _write_trend(path: Path, values, ci_lo=None, ci_hi=None) -> None:
    cols, fmt = [np.arange(len(values)), values], "%d,%.17g,,"
    if ci_lo is not None and ci_hi is not None:
        cols, fmt = cols + [ci_lo, ci_hi], "%d,%.17g,%.17g,%.17g"
    _write_csv(path, np.column_stack(cols), fmt, "t,estimate,lo,hi")


def _data_rows(path: str | Path) -> list[list[str]]:
    """Nonblank CSV rows less a header (a first row with a non-number), all as wide as the first."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if rows and any(cell.strip() and not _is_number(cell) for cell in rows[0]):
        rows = rows[1:]
    if not rows:
        raise WavetrendError(f"{path} is empty")
    if any(len(r) != len(rows[0]) for r in rows):
        raise WavetrendError(f"{path}: every row needs the {len(rows[0])} columns of the first")
    return rows


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _floats(path: str | Path, cells: list[str]) -> np.ndarray:
    try:
        return np.array([float(cell) for cell in cells])
    except ValueError as exc:
        raise WavetrendError(f"{path}: {exc}") from exc


def read_series(path: str | Path) -> np.ndarray:
    """Series CSV: a single value column or time,value; header optional."""
    rows = _data_rows(path)
    if len(rows[0]) not in (1, 2):
        raise WavetrendError(f"{path}: expected one or two columns")
    col = -1 if len(rows[0]) == 2 else 0
    values = _floats(path, [r[col] for r in rows])
    if not np.all(np.isfinite(values)):
        raise WavetrendError(f"{path}: values must be finite")
    return values


def read_matrix(path: str | Path) -> np.ndarray:
    rows = _data_rows(path)
    width = len(rows[0])
    return _floats(path, [cell for r in rows for cell in r]).reshape(len(rows), width)


def read_trend(path: str | Path) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Trend CSV as written by trend/analyze: t,estimate and optional lo,hi."""
    rows = _data_rows(path)
    if len(rows[0]) < 2:
        raise WavetrendError(f"{path}: expected t,estimate[,lo,hi] columns")
    has_ci = len(rows[0]) >= 4 and all(r[2].strip() and r[3].strip() for r in rows)
    width = 3 if has_ci else 1
    cols = _floats(path, [cell for r in rows for cell in r[1 : 1 + width]])
    est, *ci = cols.reshape(len(rows), width).T
    lo, hi = ci or (None, None)
    return est, lo, hi


# ------------------------------------------------------------- estimation

# The estimates whose files each estimation command writes.
_WRITES = {
    "spec": ("spectrum",),
    "trend": ("trend",),
    "lacf": ("lacv",),
    "analyze": ("spectrum", "trend", "lacv"),
}


def _spectrum_for(args: argparse.Namespace, x: np.ndarray) -> SpectrumEstimate:
    diff = (args.s_lag, args.s_diff_number) if args.s_do_diff else None
    smoother = args.s_smooth_type if args.s_smooth else NONE
    return estimate_spectrum(
        x,
        filter_number=args.s_filter_number,
        family=args.s_family,
        levels=args.s_max_scale,
        smoother=smoother,
        binwidth=args.s_binwidth,
        boundary=args.s_boundary_handle,
        diff=diff,
    )


def _spectrum_meta(est: SpectrumEstimate) -> dict:
    """The spectrum block of metadata.json in flag spellings; a setting that did not act is None."""
    smoother, diff = est.periodogram.smoother, est.periodogram.diff
    smoothed = smoother.kind != NONE
    lag, diff_number = diff or (None, None)
    return {
        "filter_number": est.filter.number,
        "family": est.filter.family,
        "max_scale": est.levels,
        "smooth": smoothed,
        "smooth_type": smoother.kind,
        "binwidth": smoother.binwidth if smoothed else None,
        "binwidth_clamped": est.binwidth_clamped if smoothed else None,
        "boundary_handle": est.periodogram.boundary,
        "do_diff": diff is not None,
        "lag": lag,
        "diff_number": diff_number,
    }


def _fit_trend(args: argparse.Namespace, x: np.ndarray, spectrum: SpectrumEstimate | None):
    """Trend fit with its interval, if asked; the analytic interval also yields the lacv."""
    config = EstimatorConfig(
        method=args.t_est_type,
        transform=_TRANSFORMS[args.t_transform],
        boundary=args.t_boundary_handle,
        levels=args.t_max_scale,
        filter_number=args.t_filter_number,
        family=args.t_family,
        policy=ThresholdPolicy(kind=args.t_thresh_type, normal_assumption=args.t_thresh_normal),
    )
    fit = estimate_trend(x, config, spectrum)
    if not args.t_ci:
        return fit, None
    ci = _CI_TYPES[args.t_ci_type]
    if ci == ANALYTIC:
        lacv = lacv_from_spectrum(spectrum, lag_max=args.lag_max)
        return analytic_ci(fit, lacv, alpha=args.t_sig_lvl), lacv
    fit = bootstrap_ci(
        fit, spectrum, reps=args.t_reps, alpha=args.t_sig_lvl, ci_type=ci, seed=args.seed
    )
    return fit, None


def _trend_meta(fit) -> dict:
    """The trend block of metadata.json, in flag spellings, from the fit's resolved config."""
    config, ci = fit.config, fit.ci_type != CI_NONE
    return {
        "est_type": config.method,
        "transform": {v: k for k, v in _TRANSFORMS.items()}[config.transform],
        "filter_number": config.filter_number,
        "family": config.family,
        "max_scale": config.levels,
        "boundary_handle": config.boundary,
        "thresh_type": config.policy.kind,
        "thresh_normal": config.policy.normal_assumption,
        "ci": ci,
        "ci_type": {v: k for k, v in _CI_TYPES.items()}[fit.ci_type] if ci else None,
        "sig_lvl": fit.alpha,
        "reps": fit.reps,
    }


def _pairing_notes(fit, spectrum: SpectrumEstimate | None) -> list[str]:
    if spectrum is None:
        return []
    differenced = spectrum.periodogram.diff is not None
    if fit.config.method == NONLINEAR and not differenced:
        return ["nonlinear trend paired with undifferenced spectrum; differenced recommended"]
    if fit.config.method == LINEAR and differenced:
        return ["linear trend paired with differenced spectrum; direct recommended"]
    return []


# ---------------------------------------------------------------- commands

def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_metadata(out: Path, meta: dict) -> None:
    _write_atomic(out / "metadata.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_sim(args: argparse.Namespace) -> None:
    out = _out_dir(args)
    meta = {"command": "sim", "seed": args.seed, "out_dir": args.out_dir}
    if args.scenario:
        sc = scenario(args.scenario)
        x = sc.simulate(seed=args.seed)
        meta.update(
            scenario=sc.name,
            n=sc.length,
            filter_number=sc.filter_number,
            family=sc.family,
        )
    elif args.trend_csv or args.spec_csv:
        trend = read_series(args.trend_csv) if args.trend_csv else None
        spec = read_matrix(args.spec_csv) if args.spec_csv else None
        x = tlsw_sim(
            trend=trend,
            spec=spec,
            filter_number=args.filter_number,
            family=args.family,
            seed=args.seed,
        )
        meta.update(
            scenario=None,
            n=int(x.size),
            filter_number=args.filter_number,
            family=canonical_family(args.family),
            trend_csv=args.trend_csv,
            spec_csv=args.spec_csv,
        )
    else:
        raise WavetrendError("sim needs --scenario or --trend-csv/--spec-csv")
    _write_csv(out / "series.csv", x, "%.17g", "value")
    _write_metadata(out, meta)


def cmd_estimate(args: argparse.Namespace) -> None:
    """spec, trend, lacf and analyze: estimate what the command writes, then write it."""
    out = _out_dir(args)
    x = as_series(read_series(args.input), 16)
    writes = _WRITES[args.command]
    spectrum = fit = lacv = None
    # trend alone needs a spectrum only for an interval or a threshold
    if writes != ("trend",) or args.t_ci or args.t_est_type == NONLINEAR:
        spectrum = _spectrum_for(args, x)
    if "trend" in writes:
        fit, lacv = _fit_trend(args, x, spectrum)
    if "lacv" in writes and lacv is None:
        lacv = lacv_from_spectrum(spectrum, lag_max=args.lag_max)

    meta = {
        "command": args.command,
        "input": args.input,
        "out_dir": args.out_dir,
        "n": int(x.size),
        "seed": args.seed,
    }
    if spectrum is not None:
        meta["spectrum"] = _spectrum_meta(spectrum)
    if fit is not None:
        meta["trend"] = _trend_meta(fit)
        meta["notes"] = _pairing_notes(fit, spectrum)
    if lacv is not None:
        meta["lacv"] = {"lag_max": lacv.lag_max}
    if "spectrum" in writes:
        _write_csv(out / "spectrum.csv", spectrum.S, "%.17g")
    if "trend" in writes:
        _write_trend(out / "trend.csv", fit.values, fit.ci_lo, fit.ci_hi)
    if "lacv" in writes:
        _write_csv(out / "lacv.csv", lacv.lacv, "%.17g")
    _write_metadata(out, meta)


def cmd_plot(args: argparse.Namespace) -> None:
    out = _out_dir(args)
    wanted = ("trend", "spec", "lacf") if args.plot_type == "all" else (args.plot_type,)
    explicit = args.plot_type != "all"
    written = []

    trend_path = out / "trend.csv"
    if "trend" in wanted and (explicit or trend_path.exists()):
        est, lo, hi = read_trend(trend_path)
        if args.input:
            data = read_series(args.input)
        elif (out / "series.csv").exists():
            data = read_series(out / "series.csv")
        else:
            data = est
        _write_atomic(out / "trend.svg", trend_figure(data, est, lo, hi))
        written.append("trend.svg")

    spec_path = out / "spectrum.csv"
    if "spec" in wanted and (explicit or spec_path.exists()):
        S = read_matrix(spec_path)
        _write_atomic(out / "spectrum.svg", spectrum_figure(S, scaling=args.scaling))
        written.append("spectrum.svg")

    lacv_path = out / "lacv.csv"
    if "lacf" in wanted and (explicit or lacv_path.exists()):
        lacv = read_matrix(lacv_path)
        n = lacv.shape[0]
        times = args.lacf_times or [n // 4, n // 2, 3 * n // 4]
        _write_atomic(out / "lacf.svg", lacf_figure(lacv, times))
        written.append("lacf.svg")

    if not written:
        raise FileNotFoundError(f"no result CSVs found in {out}")


_COMMANDS = {"sim": cmd_sim, "plot": cmd_plot, **dict.fromkeys(_WRITES, cmd_estimate)}


# ------------------------------------------------------------------ parser

def _add_out_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=".", help="directory for outputs (default: .)")
    p.add_argument("--seed", type=int, default=None,
                   help="integer seed for any randomness (default: fresh entropy for sim, "
                   "0 for the bootstrap)")


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


def _fold_shorthands(args: argparse.Namespace) -> None:
    """--diff LAG and --ci TYPE set the long options they abbreviate."""
    diff = vars(args).pop("diff_shortcut", None)
    if diff is not None:
        args.s_do_diff, args.s_lag = True, diff
    ci = vars(args).pop("ci_shortcut", None)
    if ci is not None:
        args.t_ci, args.t_ci_type = True, ci


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _fold_shorthands(args)
    try:
        _COMMANDS[args.command](args)
    except WavetrendError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
