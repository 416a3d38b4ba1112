"""Simulate a bundled scenario and run the full analysis on it.

One realisation is written to OUT/series.csv, then `analyze` writes its
CSVs next to it and `plot` renders the figures.

x1 (cubic trend) runs the default pipeline: mean-smoothed spectrum, linear
nondecimated trend with a bootstrap interval, local autocovariance.

x2 (broken-linear trend with a sinusoid, bump at scale 3) calls for the
recommended nonlinear setup: least-asymmetric order-6 trend wavelet with
translation-invariant thresholding, a lag-1 differenced spectrum smoothed
by a narrow running median, and a bootstrap interval.

    python scripts/run_pipeline.py --scenario x2 --reps 200
"""

import argparse
import sys
from pathlib import Path

from wavetrend.cli import main as cli

# default seed and analyze flags of each scenario
SCENARIOS = {
    "x1": (123, []),
    "x2": (10, ["--est-type", "nonlinear", "--t-filter-number", 6,
                "--t-family", "least_asymmetric",
                "--diff", 1, "--s-smooth-type", "median", "--s-binwidth", 129]),
}


def run(argv):
    rc = cli([str(a) for a in argv])
    if rc != 0:
        sys.exit(rc)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scenario", choices=tuple(SCENARIOS), required=True)
    ap.add_argument("--out-dir", default=None, help="output directory (default: results/SCENARIO)")
    ap.add_argument("--seed", type=int, default=None, help="default: 123 for x1, 10 for x2")
    ap.add_argument("--reps", type=int, default=200, help="bootstrap replicates")
    args = ap.parse_args()

    default_seed, flags = SCENARIOS[args.scenario]
    seed = default_seed if args.seed is None else args.seed
    out = args.out_dir or f"results/{args.scenario}"
    run(["sim", "--scenario", args.scenario, "--seed", seed, "--out-dir", out])
    series = Path(out) / "series.csv"
    run(["analyze", series, "--out-dir", out, *flags,
         "--ci", "normal", "--reps", args.reps, "--seed", seed])
    run(["plot", "--input", series, "--out-dir", out])
    for name in ("series.csv", "spectrum.csv", "trend.csv", "lacv.csv",
                 "metadata.json", "trend.svg", "spectrum.svg", "lacf.svg"):
        print(Path(out) / name)


if __name__ == "__main__":
    main()
