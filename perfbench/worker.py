"""One benchmark run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload search --seed 1 --seconds 30 --trace 0 --workdir .perfbench_out/w

``run.py`` starts this with ``PYTHONPATH=src``.  Set-up fills the L0
caches over the workload's arity pools and builds its inputs from the
seed; with ``--mode setup`` the worker exits there, which is what a
set-up sample times.  Otherwise it runs the timed phase: one pass over
the workload's operations, untraced, then repetitions of the operation
with the least time so far until ``--seconds`` are up (``Phase.cycle``).
It prints one JSON line with each operation's durations and the gate
counts.  With ``--trace 1`` set-up runs under spans, and after the
untraced phase comes one traced pass; the line then
also carries the per-layer metrics, and the spans are written to
``--trace-file``.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import NullTracer, Tracer, l0_counters
from workloads import WORKLOADS, Gates, prefill

# Per-layer metrics read as the summed self time of the spans of one name.
SELF_TIME = [
    "L0.prefill",
    "L1.build", "L1.theta", "L1.deloop", "L1.zc_build",
    "L2.validate_theory", "L2.validate_graded",
    "L3.project", "L3.pullback", "L3.push_left", "L3.push_right", "L3.convolve",
    "L4.graded_morphisms", "L4.enumerate_morphisms", "L4.field_theories",
    "L5.serialize", "L5.parse",
]
COUNTS = [
    "L0.arities", "L1.table_keys", "L2.validations", "L2.violations", "L3.table_keys",
    "L4.results", "L5.bytes_out", "L5.bytes_in",
]
CLI_VERBS = ["build", "validate", "fmt", "apply", "enum", "check"]
MIN_SAMPLES = 3  # so that the median of a cheap operation is not one sample


def run_op(op, tr, gates):
    """Run one operation; returns (seconds, signature, passed)."""
    failed_before = sum(gates.failed.values())
    start = time.perf_counter()
    try:
        signature = tr.call(f"op.{op.name}", op.run, tr, gates)
    except Exception:  # a failed operation is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        signature, raised = None, True
    else:
        raised = False
    seconds = time.perf_counter() - start
    return seconds, signature, not raised and sum(gates.failed.values()) == failed_before


class Phase:
    """Durations, signatures and outcomes of every operation run."""

    def __init__(self, ops, first=None):
        self.ops = ops
        self.times = {op.name: [] for op in ops}
        self.first = {} if first is None else first
        self.attempted = 0
        self.failed = 0

    def run(self, op, tr, gates):
        seconds, signature, passed = run_op(op, tr, gates)
        self.times[op.name].append(seconds)
        # outputs must repeat exactly every time the operation runs
        if op.name in self.first:
            passed = gates.expect("stable", op.name, signature, self.first[op.name]) and passed
        self.first.setdefault(op.name, signature)
        self.attempted += 1
        self.failed += 0 if passed else 1
        return seconds

    def cycle(self, tr, gates, seconds):
        """One whole pass, then, until ``seconds`` are up, the operation
        with the least time so far among those whose last duration still
        fits.  Every operation gets about the same share of the run, so a
        cheap one gets many samples and its median stays steady.  An
        operation shorter than a twentieth of ``seconds`` runs at least
        ``MIN_SAMPLES`` times, past the end if it must: in ``tables`` one
        square takes most of the run."""
        deadline = time.perf_counter() + seconds
        self.one_pass(tr, gates)
        spent = {op.name: self.times[op.name][0] for op in self.ops}
        short = {name for name, first in spent.items() if first <= seconds / 20}
        while True:
            now = time.perf_counter()
            due = [
                op for op in self.ops
                if now + self.times[op.name][-1] <= deadline
                or (op.name in short and len(self.times[op.name]) < MIN_SAMPLES)
            ]
            if not due:
                return
            op = min(due, key=lambda op: spent[op.name])
            spent[op.name] += self.run(op, tr, gates)

    def one_pass(self, tr, gates):
        return sum(self.run(op, tr, gates) for op in self.ops)

    def pass_seconds(self):
        """One pass, as the sum of every operation's median duration."""
        return sum(statistics.median(t) for t in self.times.values())


def layer_metrics(tr, untraced, traced_seconds):
    out = {}
    self_time = tr.self_times()
    for name in SELF_TIME:
        out[f"{name}_s"] = self_time.get(name, 0.0)
    for name in COUNTS:
        out[name] = tr.counts.get(name, 0)
    out["L0.layouts"] = l0_counters()["layouts"]
    # calls made under traced spans only, so the count repeats exactly
    out["L0.key_calls"] = sum(s["key_calls"] for s in tr.spans if s["parent"] is None)
    for verb in CLI_VERBS:
        durations = tr.durations(f"cli.{verb}")
        out[f"cli.{verb}_s"] = statistics.median(durations) if durations else 0.0
    out["cli.commands"] = sum(len(tr.durations(f"cli.{verb}")) for verb in CLI_VERBS)
    out["trace.overhead_s"] = traced_seconds - untraced.pass_seconds()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", action="store_true", help="expect wrong values, so every gate fires")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    gates = Gates(corrupt=args.corrupt)
    tr = Tracer(f"{args.workload}-{args.seed}") if args.trace else NullTracer()
    if wl.pools:  # warm L0 first, so no operation's time depends on its place in the order
        tr.call("L0.prefill", prefill, wl.pools)
    ops = wl.setup(args.seed, args.size, tr, gates, workdir)
    if args.mode == "setup":
        return 0

    untraced = Phase(ops)
    untraced.cycle(NullTracer(), gates, args.seconds)
    result = {"times": untraced.times, "attempted": untraced.attempted, "failed": untraced.failed}
    if args.trace:
        traced = Phase(ops, first=untraced.first)
        traced_seconds = traced.one_pass(tr, gates)
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        result["layers"] = layer_metrics(tr, untraced, traced_seconds)
        if args.trace_file:
            tr.dump(args.trace_file, {"workload": args.workload, "seed": args.seed})
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    result["checked"] = gates.checked
    result["gate_failures"] = gates.failed
    for message in gates.messages[:20]:
        print(message, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
