"""Benchmark for the adequiver checker.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/.
Workloads (see each module's docstring for its inputs and why it exists):

    monad-flatness       monad_flatness.py   in process
    pointdata-roundtrip  pointdata_roundtrip.py  in process
    cli-verify           cli_verify.py       one `python -m adequiver` child per operation

All are closed loops with one client.  Inputs come from --seed alone; the
package only sees the generated inputs.  Every operation's output is
checked against an expected verdict computed at set-up.

With --trace 0 the run measures whole passes over the workload's inputs
until --seconds have passed and at least MIN_PASSES passes ran, and
reports the end-to-end metrics (see `measure`).  Their times, setup_s
too, are in reference time: each is scaled by how long a fixed reference
computation took next to it (see REFERENCE_S), so that the speed swings
of a shared host cancel out.  With --trace 1 it runs a fixed set of
operations (the first TRACE_ROUNDS rounds) once untraced and twice
traced, reports the per-layer metrics of the first traced pass and the
tracing overhead, and checks that the exact counters of the two traced
passes agree.  Timed per-layer values are wall-clock totals over that
fixed set.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Spans of the traced run are
written to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import stats
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# fewest passes a run makes over its inputs, whatever --seconds says
MIN_PASSES = 3
SETUP_REPEATS = 3
IN_PROCESS_TIMEOUT_S = 60
# distinct rounds generated at set-up; a run measures whole passes over them
# (100, 100 and 27 inputs)
POOL_ROUNDS = {"monad-flatness": 5, "pointdata-roundtrip": 4, "cli-verify": 1}
TRACE_ROUNDS = {"monad-flatness": 3, "pointdata-roundtrip": 3, "cli-verify": 1}

END_TO_END = (
    ("verdicts_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("linalg", "monad", "sheaf", "adhm", "gamma", "deformation", "dynkin", "quiver",
          "io", "cli")
SELF_TIMES = (
    "linalg.mat_mul", "linalg.rref", "linalg.char_poly_coeffs", "linalg.rational_eigenvalues",
    "linalg.jordan_form", "linalg.inverse", "monad.nc_multiply",
    "sheaf.quadruple_to_quintuple", "sheaf.quintuple_to_quadruple",
    "adhm.check_relations", "adhm.is_nondegenerate", "adhm.check_support_property",
    "adhm.conjugate", "gamma.enumerate_group", "gamma.character_table",
    "gamma.find_labeled_isomorphism", "io.load_representation",
    "deformation.exceptional_locus",
)
CALLS = ("linalg.rref", "linalg.char_poly_coeffs", "quiver.build_n1_quiver", "dynkin.marks")


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {IN_PROCESS_TIMEOUT_S}s")


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [(f"{name}.self_s", "s") for name in SELF_TIMES]
    out += [(f"{name}.calls", "count") for name in CALLS]
    out += [
        ("linalg.mat_mul.scalar_mults", "count"),
        ("linalg.mat_mul.zero_operand_frac", "ratio"),
        ("linalg.max_entry_bits", "bit"),
        ("monad.compositions_per_op", "1/op"),
        ("sheaf.spectra_per_node", "1/node"),
        ("cli.cmd_check_rep.overlap_ratio", "ratio"),
        ("cli.import_s", "s"),
        ("cli.startup_s", "s"),
        ("io.bytes_read", "B"),
        ("trace.ops", "count"),
        ("trace.verdicts_per_s", "1/s"),
        ("trace.untraced_verdicts_per_s", "1/s"),
        ("trace.overhead", "ratio"),
    ]
    return out


def load_workload(name: str):
    if name == "monad-flatness":
        import monad_flatness as mod
    elif name == "pointdata-roundtrip":
        import pointdata_roundtrip as mod
    else:
        import cli_verify as mod
    return mod.Workload


# -- run record ----------------------------------------------------------------------


def source_identity() -> dict:
    """Git commit when the checkout has one, and a digest of the package sources."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "adequiver")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit or "unavailable (not a git checkout)",
            "source_sha256": digest.hexdigest()}


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))}


# -- running operations ------------------------------------------------------------


class Runner:
    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def one(self, op, tracer=None, trace_path=None) -> float:
        """Run and check one operation; returns its wall time in seconds."""
        self.attempted += 1
        ok = False
        outcome = None
        start = time.perf_counter()
        try:
            if self.w.in_process:
                signal.setitimer(signal.ITIMER_REAL, IN_PROCESS_TIMEOUT_S)
                try:
                    outcome = self.w.run(op)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            else:
                outcome = self.w.run(op, trace_path)
            elapsed = time.perf_counter() - start
            ok = self.w.check(op, outcome)
            if not ok and len(self.errors) < 5:
                self.errors.append(f"{op.cell}: wrong output")
        except Exception as e:      # an operation that raises is a failed operation
            elapsed = time.perf_counter() - start
            if len(self.errors) < 5:
                self.errors.append(f"{op.cell}: {type(e).__name__}: {e}")
        if tracer is not None:
            if self.w.in_process:
                tracer.finish_op()
            elif outcome is not None and outcome.trace is not None:
                tracer.merge(outcome.trace)
                tracer.child_startup_s += (outcome.wall_s - outcome.trace["main_s"]
                                           - outcome.trace["install_s"])
        if not ok:
            self.failed += 1
        return elapsed


# -- host speed reference ----------------------------------------------------------
#
# A shared host runs the same code up to 2x slower while other tenants load
# its cores and caches, over seconds and for minutes at a time, so wall
# times read the host as much as the program.  Every timed execution is
# therefore run between two runs of a fixed reference computation that does
# not touch the package, and end-to-end times are reported in reference
# time: the measured time scaled by REFERENCE_S over the mean time of the
# two references, i.e. the time on a host that runs the reference in
# REFERENCE_S.  A change to the package moves these times in full; a change
# of host speed moves the reference with them.

REFERENCE_CODE = """
from fractions import Fraction as F
a = [[F(i * j % 7 + 1, i + j + 1) for j in range(6)] for i in range(6)]
m = a
for _ in range(3):
    m = [[sum((m[i][k] * a[k][j] for k in range(6)), F(0)) for j in range(6)] for i in range(6)]
"""
_REFERENCE = compile(REFERENCE_CODE, "<reference>", "exec")
# in process: the exact arithmetic above; for a child process: a fresh
# interpreter that imports json and numpy and then does the same arithmetic
CHILD_REFERENCE = ["-c", "import json, numpy\n" + REFERENCE_CODE]
# nominal reference times, about their fastest on a 2-vCPU Xeon VM; they
# only set the scale of the reported times
REFERENCE_S = {"in_process": 0.0022, "child": 0.130}
SETUP_REFERENCES = 5


def reference(child: bool) -> float:
    """Wall time of one run of the reference computation."""
    start = time.perf_counter()
    if child:
        subprocess.run([sys.executable] + CHILD_REFERENCE, check=True, timeout=60,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    else:
        exec(_REFERENCE, {})
    return time.perf_counter() - start


def in_reference_time(seconds: float, reference_s: float, child: bool = False) -> float:
    return seconds * REFERENCE_S["child" if child else "in_process"] / reference_s


def setup_references() -> list:
    """SETUP_REFERENCES in-process references; a set-up is scaled by the
    median of those run just before and just after it."""
    return [reference(False) for _ in range(SETUP_REFERENCES)]


def measure(workload, seconds: float) -> dict:
    """Whole passes over the workload's inputs until `seconds` have passed
    and at least MIN_PASSES passes ran.

    Every execution runs between two runs of the reference (in a child
    process of its own for a workload whose operations are child
    processes), and its time is scaled into reference time by their mean.
    verdicts_per_s is the number of executions checked correct over the
    sum of these times, and the latency percentiles are taken over them.
    The record also keeps the wall-clock figures and the reference's own
    times.
    """
    runner = Runner(workload)
    child = not workload.in_process
    ops = [op for ops in workload.rounds for op in ops]
    latencies, walls, cells = [], [], {}
    refs = [reference(child)]
    start = time.perf_counter()
    passes = 0
    while True:
        for op in ops:
            dt = runner.one(op)
            refs.append(reference(child))
            walls.append(dt)
            latencies.append(in_reference_time(dt, (refs[-2] + refs[-1]) / 2, child))
            cells.setdefault(op.cell, []).append(latencies[-1])
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and passes >= MIN_PASSES:
            break
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    verdicts = runner.attempted - runner.failed
    tail = stats.tail_percentile(len(latencies))
    return {
        "runner": runner,
        "passes": passes,
        "elapsed_s": elapsed,
        "samples": len(latencies),
        "verdicts_per_s": verdicts / sum(latencies),
        "latency_p50_ms": stats.percentile(latencies, 50) * 1e3,
        "latency_p90_ms": stats.percentile(latencies, 90) * 1e3,
        "tail": (tail, stats.percentile(latencies, tail) * 1e3 if tail else None,
                 stats.samples_beyond(len(latencies), tail) if tail else 0),
        "peak_rss_mb": rss_kb / 1024.0,
        "wall": {
            "verdicts_per_s": verdicts / sum(walls),
            "latency_p50_ms": stats.percentile(walls, 50) * 1e3,
            "latency_p90_ms": stats.percentile(walls, 90) * 1e3,
            "reference_median_ms": statistics.median(refs) * 1e3,
            "reference_min_ms": min(refs) * 1e3,
        },
        "cells": {cell: {"samples": len(v), "median_ms": round(statistics.median(v) * 1e3, 3)}
                  for cell, v in sorted(cells.items())},
    }


def traced(workload, name: str, seed: int) -> dict:
    """Per-layer metrics over a fixed set of operations.

    Each operation runs untraced and then traced, so both see the same
    machine, and the traced pass is repeated to check the exact counters.
    """
    ops = [op for r in workload.rounds[:TRACE_ROUNDS[name]] for op in r]
    runner = Runner(workload)
    trace_path = os.path.join(OUT, f"child-trace-{os.getpid()}.json")

    def run_traced(op, tracer) -> float:
        if not workload.in_process:
            return runner.one(op, tracer, trace_path)
        tracer.install()
        try:
            return runner.one(op, tracer)
        finally:
            tracer.uninstall()

    tracer, again = tracing.Tracer(), tracing.Tracer()
    untraced_s = traced_s = 0.0
    for op in ops:
        untraced_s += runner.one(op)
        traced_s += run_traced(op, tracer)
    for op in ops:
        run_traced(op, again)
    repeat_ok = tracer.exact_counts() == again.exact_counts()

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{name}-{seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.kept:
            fh.write(json.dumps(span) + "\n")

    calls, self_s, c = tracer.calls, tracer.self_s, tracer.counters
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = sum(n for f, n in calls.items() if f.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = sum(s for f, s in self_s.items() if f.startswith(layer + "."))
    for f in SELF_TIMES:
        metrics[f"{f}.self_s"] = self_s.get(f, 0.0)
    for f in CALLS:
        metrics[f"{f}.calls"] = calls.get(f, 0)
    mults = c["linalg.mat_mul.scalar_mults"]
    metrics.update({
        "linalg.mat_mul.scalar_mults": mults,
        "linalg.mat_mul.zero_operand_frac": c["linalg.mat_mul.zero_products"] / mults if mults else 0.0,
        "linalg.max_entry_bits": c["linalg.max_entry_bits"],
        "monad.compositions_per_op": c["monad.compositions"] / len(ops),
        "sheaf.spectra_per_node": c["sheaf.spectra"] / c["sheaf.nodes"] if c["sheaf.nodes"] else 0.0,
        "cli.cmd_check_rep.overlap_ratio": (tracer.overlap[0] / tracer.overlap[1]
                                            if tracer.overlap[1] else 0.0),
        "cli.import_s": tracer.child_import_s,
        "cli.startup_s": tracer.child_startup_s,
        "io.bytes_read": c["io.bytes_read"],
        "trace.ops": len(ops),
        "trace.verdicts_per_s": len(ops) / traced_s,
        "trace.untraced_verdicts_per_s": len(ops) / untraced_s,
        "trace.overhead": traced_s / untraced_s,
    })
    layers = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    total = sum(layers.values()) or 1.0
    return {
        "runner": runner,
        "metrics": metrics,
        "repeat_ok": repeat_ok,
        "exact_counts": tracer.exact_counts(),
        "self_time_share": {k: round(v / total, 4) for k, v in
                            sorted(layers.items(), key=lambda kv: -kv[1]) if v},
        "spans_written": spans_path,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("monad-flatness", "pointdata-roundtrip", "cli-verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "adequiver", "__init__.py")):
        print(f"error: no package sources at {src}/adequiver; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    signal.signal(signal.SIGALRM, _on_alarm)

    start = time.perf_counter()
    import adequiver.cli  # noqa: F401  (imports every module of the package)
    import_wall_s = time.perf_counter() - start
    import_s = in_reference_time(import_wall_s, statistics.median(setup_references()))

    Workload = load_workload(args.workload)
    setups, setups_wall = [], []
    workload = None
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            workload = Workload(ROOT, args.seed, POOL_ROUNDS[args.workload])
            before = setup_references()
            start = time.perf_counter()
            workload.setup()
            workload.warm_up()
            setups_wall.append(time.perf_counter() - start)
            ref = statistics.median(before + setup_references())
            setups.append(in_reference_time(setups_wall[-1], ref))
        # the generated inputs live for the whole run; keep the collector
        # from rescanning them, as it would not in a program that only checks
        gc.collect()
        gc.freeze()
        if args.trace:
            result = traced(workload, args.workload, args.seed)
            metrics = result["metrics"]
            units = dict(per_layer_names())
            correct = result["repeat_ok"]
        else:
            result = measure(workload, args.seconds)
            result["setup_s"] = import_s + statistics.median(setups)
            metrics = {name: result[name] for name, _ in END_TO_END}
            units = dict(END_TO_END)
            correct = True
        probes = workload.run_probes() if hasattr(workload, "run_probes") else None
    finally:
        if workload is not None:
            workload.close()

    runner = result["runner"]
    correct = correct and runner.failed == 0
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        **source_identity(),
        **environment(),
        "loop": "closed, one client",
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "errors": runner.errors,
        "times": "in reference time (see REFERENCE_S); wall-clock figures are marked wall",
        "reference_s": REFERENCE_S,
        "setup_s_each": [round(s, 4) for s in setups],
        "setup_wall_s_each": [round(s, 4) for s in setups_wall],
        "import_s": round(import_s, 4),
        "import_wall_s": round(import_wall_s, 4),
    }
    if args.trace:
        record.update(exact_counters_repeat=result["repeat_ok"],
                      exact_counts=result["exact_counts"],
                      self_time_share=result["self_time_share"],
                      spans_written=os.path.relpath(result["spans_written"], ROOT))
    else:
        tail_p, tail_ms, beyond = result["tail"]
        record.update(passes=result["passes"], elapsed_s=round(result["elapsed_s"], 3),
                      samples=result["samples"],
                      wall=result["wall"],
                      tail_percentile={"p": tail_p, "ms": tail_ms, "samples_beyond": beyond},
                      cells=result["cells"])
    if probes is not None:
        record["known_defect_probes"] = probes
    print(json.dumps(record, indent=1, default=str))
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"error_rate: {record['error_rate']:.6g} ratio ({runner.failed} of {runner.attempted} "
          "operations failed)")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
