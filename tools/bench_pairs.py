"""Alternating parent/change pairs of perfbench runs, summarised as JSON.

    python3 tools/bench_pairs.py --parent OLD --change NEW \
        --out BENCH_13.json decode-k7 verify-1k suggest-r5

OLD and NEW are two checkouts of this repository, each with its own src/
and perfbench/.  Each of PAIRS pairs runs `perfbench/run.py --trace 0` for
BENCHMARK.json's run_seconds once in each checkout, pair i with seed
FIRST_SEED + i, the parent first in even pairs and the change first in odd
ones, one run at a time.  For every workload and end-to-end metric of
BENCHMARK.json the output holds each side's median and quartiles, the
ratio of the change's median to the parent's, and the pairs the change
won, ties counting for neither; every run's values are kept beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 701


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its metric values and operation counts."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    return dict(values, attempted=result["attempted"],
                failed=result["failed"], correct=result["correct"])


def summary(parent: list, change: list, metrics: list) -> dict:
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        old = [r[name] for r in parent]
        new = [r[name] for r in change]
        wins = sum(n < o if better == "lower" else n > o
                   for o, n in zip(old, new))
        row = {}
        for side, xs in (("parent", old), ("change", new)):
            q1, med, q3 = statistics.quantiles(xs, n=4)
            row[side] = {"median": med, "q1": q1, "q3": q3}
        row["ratio_change_over_parent"] = (
            row["change"]["median"] / row["parent"]["median"])
        row["change_better_pairs"] = wins
        out[name] = row
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {"host": {"python": platform.python_version(),
                       "machine": platform.machine(),
                       "cpus": os.cpu_count(),
                       "dont_write_bytecode": sys.dont_write_bytecode},
              "pairs": PAIRS, "seconds": seconds,
              "seeds": [FIRST_SEED + i for i in range(PAIRS)],
              "workloads": {}}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change")
            for side in order if i % 2 == 0 else order[::-1]:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run(checkout, workload, FIRST_SEED + i,
                                      seconds))
            print(workload, i, {side: round(rs[-1]["ops_per_s"], 1)
                                for side, rs in runs.items()}, flush=True)
        report["workloads"][workload] = {
            "metrics": summary(runs["parent"], runs["change"],
                               bench["end_to_end"]),
            "runs": runs}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
