"""Run the benchmark on two checkouts in alternating pairs and record the result.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload x2_boot \
        --seeds 701..712 --out BENCH_7.json

Pair i runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` in each checkout, with the same seed on both sides; even pairs
run the parent first, odd pairs the change.  Each checkout runs its own,
unchanged ``bench/run.py`` on its own ``src/``.

The JSON file records both checkouts (HEAD sha, the tree of ``src/``, and
whether ``src/`` or ``bench/`` had uncommitted changes; null for a plain
source tree without ``.git``, such as an exported copy), the ``# info``
environment line, the seeds and every run's metrics.  Per end-to-end
metric it gives each side's median and quartiles, the pairs the change
won (ties count for neither side), and whether the medians lie further
apart than the parent's interquartile range.  Metric directions come from
``BENCHMARK.json`` of the change.  Entries of other workloads already in
the file are kept, so one file can hold several workloads.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("..")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def checkout(path: Path) -> dict:
    """HEAD sha, tree of src/ and uncommitted changes; all None for a tree without .git."""
    if not (path / ".git").exists():
        return {"sha": None, "src_tree": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(path), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    return {
        "sha": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "bench")),
    }


def run_bench(path: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(info, metrics) of one bench/run.py run in the checkout at path."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=path, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("# info "))
    result = json.loads(lines[-1])
    return info, {k: v["value"] for k, v in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        a = [m[name] for m in parent]
        b = [m[name] for m in change]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        pa, pb = summary(a), summary(b)
        out[name] = {
            "better": direction,
            "parent": pa,
            "change": pb,
            "change_wins": wins,
            "ties": ties,
            "pairs": len(a),
            "relative_change": (pb["median"] - pa["median"]) / pa["median"],
            "gap_exceeds_parent_iqr": abs(pb["median"] - pa["median"]) > pa["iqr"],
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, required=True, help="inclusive range A..B")
    p.add_argument("--seconds", type=float, default=25.0, help="length of every run")
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two pairs")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    heads = {side: checkout(path) for side, path in sides.items()}
    record = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    for side, head in heads.items():
        if record.get(side, head)["sha"] != head["sha"]:
            p.error(f"{args.out} holds runs of another {side} commit")
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    runs = {"parent": [], "change": []}
    infos = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            info, metrics = run_bench(sides[side], args.workload, seed, args.seconds)
            infos.append(info)
            runs[side].append(metrics)
        print(f"seed {seed}: p50 parent {runs['parent'][-1]['latency_p50_s']:.3f} s, "
              f"change {runs['change'][-1]['latency_p50_s']:.3f} s", file=sys.stderr)

    env_keys = ("python", "numpy", "blas", "blas_threads", "nproc")
    record.update(heads)
    record["workloads"][args.workload] = {
        "info": {k: infos[0][k] for k in env_keys},
        "seconds": args.seconds,
        "seeds": args.seeds,
        "first": ["parent" if i % 2 == 0 else "change" for i in range(len(args.seeds))],
        "metrics": compare(runs["parent"], runs["change"], better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
