"""Run the CLI of two source trees on a fixed list of cases and report every difference.

    python scripts/compare_checkouts.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each tree first simulates x1 (seed 21) and x2 (seed 5), then runs every
case on them, in its own temporary working directory with the same
relative input paths and ``--out-dir`` (``metadata.json`` records both).
A ``plot`` case draws into the output directory of the case ``PLOTTED``
names, so its comparison covers that case's files and the new figure.
Per case it prints the exit codes, whether stderr matches (the source
directory in warnings replaced by ``<src>`` and the line number after
``<src>/....py:`` dropped, so an edit that only moves lines is no
difference) and every ``compare_outputs.py`` line other than
"identical", which names the files only one side wrote (A is the
parent, B the change).  It exits 1 on any difference.
"""

import argparse
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import compare  # noqa: E402

X1, X2 = "x1/series.csv", "x2/series.csv"

# (name, CLI arguments), run in this order; sim_<s> writes <s>/, the rest out/<name>
CASES = [
    ("sim_x1", ["sim", "--scenario", "x1", "--seed", "21"]),
    ("sim_x2", ["sim", "--scenario", "x2", "--seed", "5"]),
    # numeric trend and spectrum from CSV with a non-default filter
    ("sim_csv", ["sim", "--trend-csv", "trend.csv", "--spec-csv", "spec.csv",
                 "--filter-number", "2", "--seed", "11"]),
    # n read from the spectrum matrix alone, and a pure trend with no spectrum
    ("sim_spec_only", ["sim", "--spec-csv", "spec.csv", "--seed", "12"]),
    ("sim_trend_only", ["sim", "--trend-csv", "trend.csv"]),
    # bootstrap and analytic settings of the blocked bootstrap
    ("x2_nonlinear_diff_normal", ["analyze", X2, "--est-type", "nonlinear", "--diff", "1",
                                  "--ci", "normal", "--reps", "200"]),
    ("x2_percentile_no_boundary", ["analyze", X2, "--ci", "percentile", "--reps", "60",
                                   "--no-t-boundary-handle"]),
    ("x2_dec_normal", ["analyze", X2, "--t-transform", "dec", "--ci", "normal",
                       "--reps", "50"]),
    ("x2_dec_nonlinear_percentile", ["analyze", X2, "--t-transform", "dec", "--est-type",
                                     "nonlinear", "--diff", "1", "--ci", "percentile",
                                     "--reps", "41"]),
    ("x2_soft_percentile", ["analyze", X2, "--est-type", "nonlinear", "--t-thresh-type",
                            "soft", "--ci", "percentile", "--reps", "45", "--seed", "7"]),
    ("x1_dec_analytic", ["analyze", X1, "--t-transform", "dec", "--ci", "analytic"]),
    # 20 taps: long extension pads, so folding them back can reorder sums
    ("x1_dec_analytic_ep10", ["analyze", X1, "--t-transform", "dec", "--ci", "analytic",
                              "--t-filter-number", "10"]),
    # trend settings and the metadata written from them
    ("x1_analyze", ["analyze", X1]),
    ("x2_analyze", ["analyze", X2]),
    ("x1_trend", ["trend", X1]),
    # no interval, no threshold: no spectrum is estimated, so --diff pairs nothing
    ("x1_trend_linear_diff", ["trend", X1, "--diff", "1"]),
    ("x1_trend_soft_policy", ["trend", X1, "--t-thresh-type", "soft",
                              "--no-t-thresh-normal"]),
    ("x1_trend_nonlinear_percentile", ["trend", X1, "--est-type", "nonlinear", "--ci",
                                       "percentile", "--reps", "40"]),
    ("x2_trend_dec_analytic", ["trend", X2, "--t-transform", "dec", "--ci", "analytic",
                               "--lag-max", "20"]),
    ("x2_trend_la6", ["trend", X2, "--est-type", "nonlinear", "--diff", "1", "--t-family",
                      "DaubLeAsymm", "--t-filter-number", "6", "--t-max-scale", "5"]),
    # EP10 at scale 6 has L_6 = 1198 > n = 512: supports that wrap the row several times
    ("x1_deep_wrap_percentile", ["trend", X1, "--t-family", "DaubExPhase", "--t-filter-number",
                                 "10", "--t-max-scale", "6", "--no-t-boundary-handle",
                                 "--est-type", "nonlinear", "--ci", "percentile", "--reps",
                                 "40"]),
    # the decimated transform on the unextended row: no cropped span, no pads
    ("x1_dec_no_boundary_analytic", ["analyze", X1, "--t-transform", "dec",
                                     "--no-t-boundary-handle", "--ci", "analytic"]),
    ("x2_dec_no_boundary_nonlinear_percentile", ["trend", X2, "--t-transform", "dec",
                                                 "--no-t-boundary-handle", "--est-type",
                                                 "nonlinear", "--ci", "percentile", "--reps",
                                                 "40"]),
    ("x1_no_boundary_normal", ["analyze", X1, "--t-max-scale", "4", "--no-t-boundary-handle",
                               "--ci", "normal", "--reps", "40", "--t-sig-lvl", "0.1",
                               "--seed", "3"]),
    ("x2_median_lag2", ["analyze", X2, "--s-smooth-type", "median", "--s-do-diff",
                        "--s-lag", "2"]),
    # the x2 settings of scripts/run_pipeline.py: lag-1 differences, median-129
    ("x2_pipeline", ["analyze", X2, "--est-type", "nonlinear", "--t-filter-number", "6",
                     "--t-family", "least_asymmetric", "--diff", "1", "--s-smooth-type",
                     "median", "--s-binwidth", "129", "--ci", "normal", "--reps", "50",
                     "--seed", "10"]),
    ("x1_order2_soft", ["analyze", X1, "--s-do-diff", "--s-diff-number", "2", "--est-type",
                        "nonlinear", "--t-thresh-type", "soft"]),
    ("x2_dec_nonlinear_normal", ["trend", X2, "--t-transform", "dec", "--est-type",
                                 "nonlinear", "--t-ci", "--t-ci-type", "normal",
                                 "--reps", "40"]),
    # spectrum settings, each with the correction its periodogram picks
    ("x1_spec_epan", ["spec", X1, "--s-smooth-type", "epan"]),
    # wide windows: half the columns edge-shrunk, blocks of 511
    ("x2_spec_b511", ["spec", X2, "--s-binwidth", "511"]),
    ("x2_spec_epan_b511", ["spec", X2, "--s-binwidth", "511", "--s-smooth-type", "epan"]),
    ("x2_spec_median_b511", ["spec", X2, "--s-binwidth", "511", "--s-smooth-type", "median"]),
    ("x2_spec_unsmoothed", ["spec", X2, "--no-s-smooth"]),
    ("x2_spec_unsmoothed_lag3", ["spec", X2, "--no-s-smooth", "--s-lag", "3"]),
    ("x1_spec_periodic_lag4", ["spec", X1, "--no-s-boundary-handle", "--diff", "4"]),
    ("x2_spec_la8_order2", ["spec", X2, "--s-family", "la", "--s-filter-number", "8",
                            "--s-do-diff", "--s-diff-number", "2"]),
    ("x1_lacf_lag30", ["lacf", X1, "--lag-max", "30"]),
    # lacv from the Psi table of a non-default spectrum filter, with order-2 differencing
    ("x2_lacf_la8_order2", ["lacf", X2, "--s-family", "la", "--s-filter-number", "8",
                            "--s-do-diff", "--s-diff-number", "2"]),
    # the default lag_max of a 16-value series: floor(10 ln 16) = 27 capped at 15
    ("short_lacf", ["lacf", "short.csv"]),
    # figures, each drawn into the results of the case PLOTTED names
    ("plot_trend_band", ["plot", "--plot-type", "trend", "--input", X2]),
    ("plot_spec_global", ["plot", "--plot-type", "spec", "--scaling", "global"]),
    ("plot_spec_by_level", ["plot", "--plot-type", "spec", "--scaling", "by-level"]),
    ("plot_lacf", ["plot", "--plot-type", "lacf"]),
    # errors
    ("diff_order_0", ["analyze", X1, "--s-do-diff", "--s-diff-number", "0"]),
    ("ragged_long_row", ["spec", "ragged_long.csv"]),
    ("ragged_short_row", ["spec", "ragged_short.csv"]),
    ("diff_order_3", ["analyze", X1, "--s-do-diff", "--s-diff-number", "3"]),
    ("diff_lag_0", ["analyze", X1, "--diff", "0"]),
    ("unknown_filter", ["trend", X1, "--t-filter-number", "11"]),
    ("deep_trend", ["trend", X1, "--t-max-scale", "12"]),
    ("negative_trend_depth", ["trend", X1, "--t-max-scale", "-1"]),
    ("analytic_nonlinear", ["trend", X1, "--t-transform", "dec", "--est-type", "nonlinear",
                            "--ci", "analytic"]),
    ("too_few_reps", ["trend", X1, "--ci", "normal", "--reps", "10"]),
    # lags of n or more are not lags of the series
    ("lacf_lag_max_past_n", ["lacf", X1, "--lag-max", "5000"]),
    ("missing_input", ["trend", "missing.csv"]),
    # squares of a series of magnitude 1e160 overflow float64
    ("huge_values", ["analyze", "huge.csv"]),
    # a longer, non-dyadic series: cropped trend and periodogram transforms
    ("long_nonlinear_diff_normal", ["analyze", "long.csv", "--est-type", "nonlinear", "--diff",
                                    "1", "--ci", "normal", "--reps", "40"]),
    ("long_analyze", ["analyze", "long.csv"]),
    # the cropped fit and periodogram off the default geometry: 16 taps at
    # depth 4, and order-2 differences at depth 3
    ("long_la8_shallow_percentile", ["trend", "long.csv", "--est-type", "nonlinear",
                                     "--t-family", "la", "--t-filter-number", "8",
                                     "--t-max-scale", "4", "--ci", "percentile", "--reps", "40"]),
    ("long_spec_shallow_order2", ["spec", "long.csv", "--s-max-scale", "3", "--s-do-diff",
                                  "--s-diff-number", "2"]),
    # spectrum and lacv near 1e-300, which the writer leaves to Python's
    # formatting, and values with three-digit exponents
    ("tiny_analyze", ["analyze", "tiny.csv"]),
    ("big_analyze", ["analyze", "big.csv"]),
]

PLOTTED = {
    "plot_trend_band": "x2_dec_normal",
    "plot_spec_global": "x2_analyze",
    "plot_spec_by_level": "x2_analyze",
    "plot_lacf": "x1_lacf_lag30",
}

# input files: series with a row wider or narrower than the first, a
# length-64 trend and 6 x 64 spectrum (power at scales 1, 3 and 4) for
# the sim_csv, sim_spec_only and sim_trend_only cases, 256 seeded standard
# normals scaled by 1e160, 3000 seeded normals with a growing spread around
# a slow sine, 16 seeded normals, and 256 more seeded normals scaled by
# 1e-150 and by 1e120 (drawn last, so the earlier inputs keep their bytes)
_rng = random.Random(5)
INPUTS = {
    "ragged_long.csv": "time,value\n0,1.5\n1,2.5,9\n" + "".join(f"{t},0.5\n" for t in range(2, 64)),
    "ragged_short.csv": "time,value\n0,1.5\n2\n" + "".join(f"{t},0.5\n" for t in range(2, 64)),
    "trend.csv": "time,value\n" + "".join(f"{t},{0.1 * t - 2.5e-3 * t * t}\n" for t in range(64)),
    "spec.csv": "".join(",".join(str(p * (1 + t / 64)) for t in range(64)) + "\n"
                        for p in (1.0, 0.0, 0.5, 2.0, 0.0, 0.0)),
    "huge.csv": "value\n" + "".join(f"{1e160 * _rng.gauss(0.0, 1.0)!r}\n" for _ in range(256)),
    "long.csv": "value\n" + "".join(
        f"{math.sin(t / 400) + (0.5 + t / 3000) * _rng.gauss(0.0, 1.0)!r}\n" for t in range(3000)
    ),
    "short.csv": "value\n" + "".join(f"{_rng.gauss(0.0, 1.0)!r}\n" for _ in range(16)),
}
_normals = [_rng.gauss(0.0, 1.0) for _ in range(256)]
INPUTS["tiny.csv"] = "value\n" + "".join(f"{1e-150 * g!r}\n" for g in _normals)
INPUTS["big.csv"] = "value\n" + "".join(f"{1e120 * g!r}\n" for g in _normals)


def out_dir(name: str, argv: list[str]) -> str:
    """--out-dir of a case, relative to the working directory; sims write the
    inputs and plots draw into the results they plot."""
    return name.removeprefix("sim_") if argv[0] == "sim" else f"out/{PLOTTED.get(name, name)}"


def run_case(src: Path, work: Path, name: str, argv: list[str]) -> tuple[int, str]:
    """(exit code, stderr) of one case run from work with src on the path."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "wavetrend.cli", *argv, "--out-dir", out_dir(name, argv)]
    proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
    stderr = proc.stderr.replace(str(src), "<src>")
    return proc.returncode, re.sub(r"(<src>/[^\s:]+\.py):\d+", r"\1", stderr)


def compare_case(a: tuple[int, str], b: tuple[int, str], dir_a: Path, dir_b: Path) -> list[str]:
    """Every difference between two runs of one case; empty when there is none."""
    diffs = []
    if a[0] != b[0]:
        diffs.append(f"exit {a[0]} against {b[0]}")
    if a[1] != b[1]:
        diffs.append(f"stderr {a[1].strip()!r} against {b[1].strip()!r}")
    diffs += [line for line in compare(dir_a, dir_b) if not line.endswith(": identical")]
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    srcs = (args.parent_src.resolve(), args.change_src.resolve())
    failed = 0
    with tempfile.TemporaryDirectory() as tmp_a, tempfile.TemporaryDirectory() as tmp_b:
        works = (Path(tmp_a), Path(tmp_b))
        for work in works:
            for file, text in INPUTS.items():
                (work / file).write_text(text)
        for name, case in CASES:
            runs = [run_case(src, work, name, case) for src, work in zip(srcs, works)]
            dirs = [work / out_dir(name, case) for work in works]
            diffs = compare_case(*runs, *dirs)
            failed += bool(diffs)
            status = f"exit {runs[0][0]}, identical" if not diffs else "; ".join(diffs)
            print(f"{name}: {status}", flush=True)
    print(f"{failed} of {len(CASES)} cases differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
