"""Fast self-check of the benchmark.

    python3 bench/selfcheck.py

Runs every workload at tiny size (``--tiny``), for one second and on a
seed the tuning runs did not use, once untraced and once traced, through
the same command line the full benchmark uses.  It asserts that each run
prints the result object with exactly the metrics BENCHMARK.json names, in
their units, that every output check passed, and that context.json gives a
prediction for every per-layer metric.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 2


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    context = json.loads((BENCH / "context.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    missing = set(want[1]) - set(context["predictions"])
    assert not missing, f"no prediction for {sorted(missing)}"
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = run(w, trace)
            where = f"{w} trace={trace}"
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
            assert res["correct"] is True and res["failed"] == 0, f"{where}: output checks failed"
            assert res["attempted"] >= 2, where
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want[trace], f"{where}: metrics/units differ: {got} != {want[trace]}"
            for k, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), f"{where}: {k}"
                assert trace == 1 or v["value"] > 0, f"{where}: end-to-end {k} is 0"
            print(f"ok  {where}: {len(got)} metrics, {res['attempted']} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
