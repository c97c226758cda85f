"""Paired benchmark record: perfbench/run.py on a base revision and on this
checkout, alternating which side runs first, written as one JSON file.

    python3 scripts/bench_pairs.py --base HEAD --workload online_1khz \
        --pairs 10 --out bench_pairs.json

The base side is exported with `git archive` into a temporary directory; the
change side is the working tree this script lives in.  Every run lasts the
benchmark's `run_seconds` from BENCHMARK.json.  Pair i (from 0) runs seed
i + 1 on both sides, the base first when i is even.  For every
metric the file holds each side's median and quartiles over the pairs and
the number of pairs each side won (ties count for neither), with the
direction of each metric taken from BENCHMARK.json.  `--trace 1` records
the per-layer metrics instead of the end-to-end ones.  An existing output
file is extended; its entry for the same workload and trace setting is
replaced.  Run from any directory; the machine's CPU count and the numpy
version go into the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the base side")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = dest / "src.tar"
    subprocess.run(["git", "archive", "-o", str(archive), rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def run_once(checkout: Path, args, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload",
           args.workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd[2:])} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list[dict], directions: dict) -> dict:
    out = {}
    for name in runs[0]["base"]["metrics"]:
        base = [r["base"]["metrics"][name] for r in runs]
        head = [r["head"]["metrics"][name] for r in runs]
        unit, better = directions.get(name, (None, None))
        entry = {"unit": unit, "better": better, "base": spread(base), "head": spread(head)}
        if better is not None:
            sign = 1.0 if better == "higher" else -1.0
            entry["head_wins"] = sum(sign * (h - b) > 0.0 for b, h in zip(base, head))
            entry["base_wins"] = sum(sign * (b - h) > 0.0 for b, h in zip(base, head))
        out[name] = entry
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: (m["unit"], m["better"])
                  for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    base_rev = git("rev-parse", args.base)
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base_dir = Path(tmp)
        export(base_rev, base_dir)
        for i in range(args.pairs):
            seed = i + 1
            order = [("base", base_dir), ("head", ROOT)]
            if i % 2:
                order.reverse()
            run = {"pair": i, "seed": seed, "first": order[0][0]}
            for side, checkout in order:
                run[side] = run_once(checkout, args, seed, seconds)
            runs.append(run)
            print(f"pair {i} seed {seed}: " + ", ".join(
                f"{side} failed {run[side]['failed']}/{run[side]['attempted']}"
                for side in ("base", "head")), file=sys.stderr)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.update({"cpu_count": os.cpu_count(), "numpy": np.__version__,
                   "python": platform.python_version(), "base": base_rev,
                   "head": f"working tree on {git('rev-parse', 'HEAD')}"})
    key = f"{args.workload}/trace{args.trace}"
    record.setdefault("workloads", {})[key] = {
        "workload": args.workload, "trace": args.trace, "seconds": seconds,
        "pairs": args.pairs, "metrics": summarize(runs, directions), "runs": runs}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
