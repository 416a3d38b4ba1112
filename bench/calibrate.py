"""Error distribution of each workload's estimates against the truth.

    python3 bench/calibrate.py x2_boot 300 [--tiny]

Runs the library steps each workload's op runs (without the interval,
which does not change the estimate) on ``count`` seeds outside the range
benchmark runs use, and prints quantiles of the interior trend and
spectrum RMSE.  The tolerances in workloads.py were fixed from this output
at the seed commit.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import wavetrend as wt  # noqa: E402
import workloads as W  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=tuple(W.WORKLOADS))
    p.add_argument("count", type=int)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()
    w = W.workload(args.workload, args.tiny)
    errs = []
    for seed in range(50_000, 50_000 + args.count):
        inp = W.make_inputs(w, seed, 1)[0]
        if w.argv is None or "nonlinear" in w.argv:
            spec, fit, lacv = W.lib_analyze(inp.x)
        else:
            spec = wt.estimate_spectrum(inp.x)
            transform = wt.DECIMATED if "dec" in w.argv else wt.NONDECIMATED
            fit = wt.estimate_trend(inp.x, wt.EstimatorConfig(transform=transform))
            lacv = wt.lacv_from_spectrum(spec, wt.autocorrelation_wavelets(spec.filter, spec.levels))
        out = W.Output(trend=fit.values, lo=None, hi=None, S=spec.S, lacv=lacv.lacv)
        errs.append(W.errors(out, inp))
    errs = np.array(errs)
    for col, what in enumerate(("trend", "spectrum")):
        q = np.quantile(errs[:, col], [0.5, 0.9, 0.99, 1.0])
        print(f"{w.name} n={w.n} {what} RMSE q50/q90/q99/max: " + " ".join(f"{v:.3f}" for v in q))
    return 0


if __name__ == "__main__":
    sys.exit(main())
