"""Benchmark of wavetrend ``analyze``: one closed-loop client per workload.

    python3 bench/run.py --workload x2_boot --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The package is imported from
``src/`` of that checkout; nothing is installed.  BLAS threads are pinned
to 1 before numpy loads: outputs are byte-identical across thread counts,
so the pin changes only timing.

One op is one ``analyze`` of one series (see workloads.py).  A run makes a
pool of seeded inputs, runs a warm-up op, then runs ops back to back, each
after the previous one returns, for ``--seconds`` seconds.  Every op's
output is checked; the warm-up and the first timed op share an input and
must produce byte-identical output.

``--trace 0`` prints the end-to-end metrics.  Its ``setup_s`` is the
median wall time of fresh interpreters importing ``wavetrend.cli``, timed
between ops across the run.  ``--trace 1`` alternates
traced and untraced ops and prints the per-layer metrics from spans
recorded around the calls into each module (tracing.py); the spans are
written to ``bench/_work/traces/``.

The last line of stdout is the result as one JSON object; the line before
it (``# info ...``) gives the environment, the tail percentile used and
its sample count, and the failed fraction.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

INPUT_POOL = 3       # distinct series per run, used in turn
SETUP_REPS = 7       # fresh-interpreter imports timed per run, median reported
TAIL_BEYOND = 10     # samples the tail percentile must leave above it

END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count/op"
    if name.endswith("_s") or name.endswith(".s"):
        return "s/op"
    if name.endswith("madds_computed"):
        return "madds/op"
    if name.endswith("bytes_written"):
        return "B/op"
    return "frac"


def import_cli(timeout: float | None = None) -> float:
    """Wall time of a fresh interpreter importing wavetrend.cli."""
    cmd = [sys.executable, "-c", "import wavetrend.cli"]
    t0 = perf_counter()
    subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
                   timeout=timeout)
    return perf_counter() - t0


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above) of the highest percentile with
    TAIL_BEYOND samples above it, but never below the median: a run with
    fewer than 2 * TAIL_BEYOND + 1 ops reports its upper median."""
    lat = sorted(latencies)
    k = max(len(lat) - TAIL_BEYOND - 1, len(lat) // 2)
    return lat[k], 100.0 * (k + 1) / len(lat), len(lat) - k - 1


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
    }


class Runner:
    """One run of one workload: inputs, ops, checks and metrics."""

    def __init__(self, name: str, seed: int, tiny: bool):
        import workloads

        self.W = workloads
        self.w = workloads.workload(name, tiny)
        self.seed = seed
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        self.inputs = workloads.make_inputs(self.w, seed, INPUT_POOL)
        self.csvs = []
        if self.w.argv is not None:
            self.dir.mkdir(parents=True, exist_ok=True)
            for i, inp in enumerate(self.inputs):
                path = self.dir / f"in{i}.csv"
                workloads.write_series(path, inp.x)
                self.csvs.append(path)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.bytes_written = 0

    def op(self, i: int, span=None) -> float:
        """Run op i inside span (if given), check its output, return its latency in seconds.

        Op 0 is the warm-up; it and op 1 run on input 0.
        """
        W = self.W
        k = max(i - 1, 0) % INPUT_POOL
        inp = self.inputs[k]
        out_dir = self.dir / "out"
        self.attempted += 1
        t0 = perf_counter()
        try:
            with span or contextlib.nullcontext():
                if self.w.argv is None:
                    result = W.lib_analyze(inp.x)
                else:
                    result = W.cli.main(W.cli_argv(self.w, self.csvs[k], out_dir, inp))
        except Exception as exc:  # a raising op is counted as failed; the run goes on
            result = exc
        latency = perf_counter() - t0

        if isinstance(result, Exception):
            bad = [f"raised {type(result).__name__}: {result}"]
        elif self.w.argv is not None and result != 0:
            bad = [f"analyze exited with {result}"]
        else:
            try:
                if self.w.argv is None:
                    out = W.lib_output(result, keep_bytes=i <= 1)
                else:
                    out = W.read_cli_output(out_dir, keep_bytes=i <= 1)
            except (OSError, ValueError, IndexError) as exc:
                bad = [f"unreadable output: {exc}"]
            else:
                bad = W.check(self.w, out, inp)
                self.bytes_written = out.bytes_written
                if i == 0:
                    self.reference = out.blobs
                elif i == 1 and out.blobs != self.reference:
                    bad.append("output differs from the warm-up op on the same input")
        if bad:
            self.failed += 1
            self.problems.extend(f"op {i}: {b}" for b in bad)
        return latency

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def run_plain(r: Runner, seconds: float, setup_reps: int) -> dict:
    # The first import compiles bytecode, a cost users pay once per
    # install.  Its timeout also guards the timed imports, which run without
    # one because waiting with a timeout polls in 50 ms steps.
    import_cli(timeout=120)
    r.op(0)
    lat, setup = [], []
    start = perf_counter()
    while not lat or perf_counter() - start < seconds:
        lat.append(r.op(len(lat) + 1))
        # timed imports go between ops, spread over the run, so that
        # setup_s sees the same machine as the ops
        if perf_counter() - start >= len(setup) * seconds / setup_reps:
            setup.append(import_cli())
    while len(setup) < setup_reps:
        setup.append(import_cli())
    tail_value, tail_pct, beyond = tail(lat)
    metrics = {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_value,
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - r.failed / r.attempted,
        "setup_s": statistics.median(setup),
    }
    info = {"timed_ops": len(lat), "tail_percentile": tail_pct,
            "tail_samples_beyond": beyond}
    return {"metrics": metrics, "units": END_TO_END_UNITS, "info": info}


def run_traced(r: Runner, seconds: float) -> dict:
    import tracing

    tracer = tracing.Tracer()
    root = tracing.LIB_ROOT if r.w.argv is None else tracing.CLI_ROOT
    r.op(0)
    traced, plain, per_op = [], [], []
    start = perf_counter()
    i = 1
    # odd ops traced, even ops not, so drift on the machine hits both alike
    while not plain or perf_counter() - start < seconds:
        if i % 2:
            tracer.begin_op(i)
            tracer.install()
            try:
                traced.append(r.op(i, span=tracer.span(root)))
            finally:
                tracer.uninstall()
            m = tracer.op_metrics(i)
            m["cli.bytes_written"] = r.bytes_written
            per_op.append(m)
        else:
            plain.append(r.op(i))
        i += 1
    metrics = tracing.median_metrics(per_op)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    trace_file = WORK / "traces" / f"{r.w.name}-seed{r.seed}.jsonl"
    tracer.dump(trace_file)
    units = {k: per_layer_unit(k) for k in metrics}
    info = {"traced_ops": len(traced), "untraced_ops": len(plain),
            "spans": str(trace_file.relative_to(ROOT))}
    return {"metrics": metrics, "units": units, "info": info}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-check")
    args = p.parse_args(argv)

    if not (SRC / "wavetrend" / "cli.py").is_file():
        print(f"no wavetrend sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    r = Runner(args.workload, args.seed, args.tiny)
    try:
        if args.trace:
            res = run_traced(r, args.seconds)
        else:
            res = run_plain(r, args.seconds, 2 if args.tiny else SETUP_REPS)
    finally:
        r.close()
    for problem in r.problems:
        print(problem, file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "failed_frac": r.failed / r.attempted,
            **environment(), **res["info"]}
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
