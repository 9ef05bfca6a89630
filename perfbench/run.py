"""Benchmark of the shifttrellis CLI, driven in-process through cli.main.

    python3 perfbench/run.py --workload decode-k7 --seed 1 --seconds 35 --trace 0

One client runs a closed loop in one process and one thread: each operation
is one shifttrellis.cli.main([...]) call with --format json --out FILE, and
the next starts when it returns.  Inputs come from --seed and are written
to files during set-up; every report is checked, outside the timed region,
with the benchmark's own arithmetic.  --trace 0 measures the end-to-end
metrics with nothing wrapped.  --trace 1 alternates untraced and traced
runs of one fixed pass of operations for --seconds, then runs the decode
length probe; it reports the per-layer metrics.  Metrics are printed one
per line with their unit, and the last line of standard output is one JSON
object.  See README.md in this directory for the metric definitions and
the workloads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracing import Tracer, trellis_profile
from workloads import WORKLOADS, probe_ops

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
MAX_PROBLEMS_KEPT = 20


def import_cli():
    """Import the program afresh from src/, so set-up pays for the import."""
    for name in [m for m in sys.modules
                 if m == "shifttrellis" or m.startswith("shifttrellis.")]:
        del sys.modules[name]
    return importlib.import_module("shifttrellis.cli")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, op, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS_KEPT:
                self.problems.append(f"{op.argv[0]}: {problem}")


def run_op(cli, op, out: Path, tally: Tally):
    """Run one operation; return its wall time in ns and its report."""
    if out.exists():
        out.unlink()
    t0 = perf_counter_ns()
    try:
        rc = cli.main(op.argv)
        problem = f"exit status {rc}" if rc else None
    except (Exception, SystemExit) as exc:
        problem = f"raised {exc!r}"
    dt = perf_counter_ns() - t0
    report = None
    if not problem:
        try:
            report = json.loads(out.read_text(encoding="ascii"))
            problem = op.check(report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable report: {exc!r}"
    tally.add(op, problem)
    return dt, report


def set_up(name, seed, work, out, tally):
    """Import, generate and write the inputs, and run one warm-up operation."""
    t0 = perf_counter()
    cli = import_cli()
    ops = WORKLOADS[name].prepare(random.Random(f"{name}:{seed}"), work, str(out))
    run_op(cli, ops[0], out, tally)
    return cli, ops, perf_counter() - t0


def tail_latency(samples):
    """p90 by nearest rank, or the highest percentile with ten samples
    beyond it when the run is shorter than 100 samples."""
    s = sorted(samples)
    k = -(-9 * len(s) // 10) - 1
    if len(s) - 1 - k < 10:
        k = max(len(s) - 11, 0)
    return s[k], 100 * (k + 1) / len(s)


def end_to_end(name, seed, seconds, work, out, tally):
    setups = []
    for _ in range(SETUP_REPEATS):
        cli, ops, took = set_up(name, seed, work, out, tally)
        setups.append(took)
    gc.collect()
    samples = []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        dt, _ = run_op(cli, ops[len(samples) % len(ops)], out, tally)
        samples.append(dt)
    measured = perf_counter() - start
    ms = [s / 1e6 for s in samples]
    tail, pct = tail_latency(ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(samples) / (sum(samples) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    notes = {"samples": len(samples), "measured_s": measured,
             "latency_p90_ms.percentile": pct, "setup_s.repeats": setups}
    return metrics, notes, True


def _counts(tracer, nu_after_sum, profile):
    """Every deterministic count of the tracer so far, as one flat dict."""
    counts = {f"{n}.calls": c for n, c in tracer.calls.items()}
    counts.update({f"{p}>{c}.calls": v for (p, c), v in tracer.edge_calls.items()})
    counts.update({f"{p}>{c}.returned": v for (p, c), v in tracer.edge_ok.items()})
    counts["blocks.sequences_built"] = tracer.sequences_built
    counts["transform.nu_after_sum"] = nu_after_sum
    counts.update(profile)
    return counts


def _traced_pass(cli, ops, out, tally, tracer):
    """Run the pass once, traced; return its counts."""
    before = _counts(tracer, 0, {})
    profile = Counter(branches=0, paths=0, states_peak=0, states_nominal=0)
    nu_after_sum = 0
    for op in ops:
        _, report = run_op(cli, op, out, tally)
        if report and "nuAfter" in report:
            nu_after_sum += report["nuAfter"]
        for span, result in tracer.take_kept():
            if span == "trellis.enumerate_paths":
                profile["paths"] += len(result)
            elif span == "trellis.min_weight_path":
                profile["paths"] += 1
            else:
                branches, peak, nominal = trellis_profile(result)
                profile["branches"] += branches
                profile["states_peak"] = max(profile["states_peak"], peak)
                profile["states_nominal"] = max(profile["states_nominal"],
                                                nominal)
    after = _counts(tracer, nu_after_sum, profile)
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _probe(seed, work, out, tally):
    """Decode frames of N = 50, 200 and 800 information blocks, traced."""
    cli = sys.modules["shifttrellis.cli"]
    layers = ("trellis.build_error_trellis", "trellis.min_weight_path")
    per_n = {}
    tracer = Tracer()
    tracer.install()
    try:
        for n_info, op in probe_ops(seed, work, str(out)):
            before = dict(tracer.total_ns)
            run_op(cli, op, out, tally)
            for layer in layers:
                ns = tracer.total_ns[layer] - before.get(layer, 0)
                per_n.setdefault((n_info, layer), []).append(ns / 1e6)
    finally:
        tracer.uninstall()
    metrics = {}
    for (n_info, layer), values in per_n.items():
        metrics[f"probe.n{n_info}.{layer}.ms"] = (statistics.median(values), "ms")
    for layer in layers:
        base = metrics[f"probe.n200.{layer}.ms"][0]
        metrics[f"{layer}.ratio_800_200"] = (
            metrics[f"probe.n800.{layer}.ms"][0] / base if base else 0.0,
            "ratio")
    return metrics


def per_layer(name, seed, seconds, work, out, tally):
    cli, ops, _ = set_up(name, seed, work, out, tally)
    ops = ops[:WORKLOADS[name].pass_size]
    gc.collect()
    # Untraced and traced passes alternate, so that both see the same swings
    # in machine speed and their ratio is the tracing overhead.
    tracer = Tracer(capture_first_op=True)
    untraced, passes = [], []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        untraced.extend(run_op(cli, op, out, tally)[0] for op in ops)
        tracer.install()
        try:
            passes.append(_traced_pass(cli, ops, out, tally, tracer))
        finally:
            tracer.uninstall()
    ok = True
    if any(p != passes[0] for p in passes):
        tally.problems.append("counts differ between identical traced passes")
        ok = False
    if any(dur != own for dur, own in tracer.roots):
        tally.problems.append("span self times do not add up to cli.main")
        ok = False

    n_ops = len(tracer.roots)
    counts = passes[0]

    def ms(layer, kind="total"):
        table = tracer.total_ns if kind == "total" else tracer.self_ns
        return (table[layer] / n_ops / 1e6, "ms")

    def count(key, unit="count"):
        return (counts.get(key, 0), unit)

    search = "transform.search_reduction_plan>transform.simultaneous_reduce"
    tried = counts.get(f"{search}.calls", 0)
    legal = counts.get(f"{search}.returned", 0)
    metrics = {
        "trellis.build_error_trellis.ms": ms("trellis.build_error_trellis"),
        "trellis.build_code_trellis.ms": ms("trellis.build_code_trellis"),
        "trellis.enumerate_paths.ms": ms("trellis.enumerate_paths"),
        "trellis.min_weight_path.ms": ms("trellis.min_weight_path"),
        "trellis.branches": count("branches"),
        "trellis.states_peak": count("states_peak", "states"),
        "trellis.states_nominal": count("states_nominal", "states"),
        "trellis.paths": count("paths"),
        "blocks.sequences_built": count("blocks.sequences_built"),
        "blocks.parse_blocks.ms": ms("blocks.parse_blocks"),
        "blocks.format_blocks.ms": ms("blocks.format_blocks"),
        "sequences.syndrome.ms": ms("sequences.syndrome"),
        "sequences.shift_received.ms": ms("sequences.shift_received"),
        "sequences.boundary_masks.ms": ms("sequences.boundary_masks"),
        "sequences.reconstruct_code_paths.ms":
            ms("sequences.reconstruct_code_paths"),
        "sequences.verify_simultaneous_reduction.self_ms":
            ms("sequences.verify_simultaneous_reduction", "self"),
        "transform.search_reduction_plan.self_ms":
            ms("transform.search_reduction_plan", "self"),
        "transform.simultaneous_reduce.ms": ms("transform.simultaneous_reduce"),
        "transform.simultaneous_reduce.calls":
            count("transform.simultaneous_reduce.calls"),
        "transform.suggest_backward_shift.ms":
            ms("transform.suggest_backward_shift"),
        "transform.plans_tried": (tried, "count"),
        "transform.plans_legal": (legal, "count"),
        "transform.plans_legal_ratio": (legal / tried if tried else 0.0, "ratio"),
        "transform.nu_after_sum": count("transform.nu_after_sum"),
        "gf2poly.mat_mul_transpose.calls":
            count("gf2poly.mat_mul_transpose.calls"),
        "gf2poly.mat_mul_transpose.ms": ms("gf2poly.mat_mul_transpose"),
        "gf2poly.check_gh_relation.calls":
            count("gf2poly.check_gh_relation.calls"),
        "gf2poly.check_gh_relation.ms": ms("gf2poly.check_gh_relation"),
        "gf2poly.overall_constraint_length.ms":
            ms("gf2poly.overall_constraint_length"),
        "gf2poly.parse_matrix.ms": ms("gf2poly.parse_matrix"),
        "cli.main.ms": ms("cli.main"),
        "cli.main.self_ms": ms("cli.main", "self"),
        "trace.overhead_ratio": (
            statistics.mean(d for d, _ in tracer.roots)
            / statistics.mean(untraced), "ratio"),
    }
    metrics.update(_probe(seed, work, out, tally))
    notes = {"traced_ops": n_ops, "traced_passes": len(passes),
             "untraced_ops": len(untraced),
             "self_times_add_up": sum(d == own for d, own in tracer.roots),
             "pass_counts": counts,
             "layers": {n: {"calls": tracer.calls[n],
                            "total_ms": tracer.total_ns[n] / 1e6,
                            "self_ms": tracer.self_ns[n] / 1e6}
                        for n in sorted(tracer.calls)},
             "first_op_spans": [
                 {"id": i, "parent": p, "name": n, "start_ns": s, "end_ns": e}
                 for i, p, n, s, e in tracer.spans]}
    return metrics, notes, ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "shifttrellis" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes, ok = measure(args.workload, args.seed, args.seconds,
                                     work, work / "report.json", tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = ok and tally.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value} {unit}")
    print(f"  fail_ratio = {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted} operations)")
    for key, value in notes.items():
        if not isinstance(value, (dict, list)):
            print(f"  [{key}] {value}")
    for problem in tally.problems:
        print(f"  problem: {problem}")
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, notes=notes,
                  problems=tally.problems)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
