"""Benchmark of the htk kernel: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program under test is ``src/htk``.
Each run starts a fresh worker interpreter (``worker.py``) that builds the
workload's inputs from the seed, measures for ``--seconds`` and checks
every output.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass; the line before it records the run's context.  Names and units of
the metrics are those of ``BENCHMARK.json``.  ``--smoke`` runs every
workload at tiny sizes, checks that each metric is emitted with its unit,
and that every correctness gate fires when its expected values are wrong.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009  # kept for checking claims, never for tuning
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
# setup probes other than "build the workload's inputs in a fresh worker"
PROBES = {"cli": ["-c", "import htk.cli"]}
# What each layer's metrics should move, by workload (see README.md).
LAYER_MAP = {
    "L0": ["cli.cmd_p50_s", "cli.wall_s", "tables.setup_s", "tables.wall_s"],
    "L1": ["tables.wall_s", "tables.peak_rss_mb"],
    "L2": ["tables.wall_s", "cli.cmd_p50_s"],
    "L3": ["tables.wall_s"],
    "L4": ["search.wall_s"],
    "L5": ["tables.wall_s", "tables.peak_rss_mb"],
}


def host_ref_ms(samples=20):
    """Median milliseconds of a fixed pure-Python loop.  The load average
    does not see other guests on a shared host; this does, so runs made
    while the host was slow can be spotted."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        x = 0
        for i in range(50_000):
            x += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


class RunError(Exception):
    """A run that cannot produce a result."""


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return spec, why


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else ref[5:]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_samples(workload, seed, size, workdir, env, n, deadline):
    """Seconds from starting a fresh interpreter to its exit after set-up."""
    args = PROBES.get(workload) or [
        str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--mode", "setup", "--size", size, "--workdir", str(workdir),
    ]
    out = []
    for _ in range(n):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                              timeout=max(deadline - time.monotonic(), 1))
        out.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode())
            raise RunError(f"set-up of {workload} exited with {proc.returncode}")
    return out


def run_worker(args, env, deadline, quiet):
    # its own process group, so that a worker out of time goes with its children
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL if quiet else None,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise RunError("worker ran out of time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, size="full", corrupt=False):
    """One run; returns (context, result line)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    spec, why = load_spec()
    if not (ROOT / "src" / "htk" / "__init__.py").is_file():
        raise RunError("no src/htk to measure")
    if workload not in why:
        raise RunError(f"unknown workload {workload!r}")
    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    context = {
        "workload": workload,
        "why": why[workload],
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "loadavg_1m_start": os.getloadavg()[0],
        "host_ref_ms_start": host_ref_ms(),
        "layer_map": LAYER_MAP,
    }
    try:
        setup = [] if trace else setup_samples(workload, seed, size, workdir, env,
                                               SETUP_SAMPLES if size == "full" else 1, deadline)
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--size", size, "--workdir", str(workdir)]
        if corrupt:
            args.append("--corrupt")
        if trace:
            context["trace_file"] = str(out_dir.relative_to(ROOT) / f"trace-{workload}-{seed}.json")
            args += ["--trace-file", str(ROOT / context["trace_file"])]
        res = run_worker(args, env, deadline, quiet=corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context["loadavg_1m_end"] = os.getloadavg()[0]
    context["host_ref_ms_end"] = host_ref_ms()
    medians = [statistics.median(t) for t in res["times"].values()]
    context["operations"] = len(medians)
    context["samples"] = sum(len(t) for t in res["times"].values())
    context["setup_samples"] = len(setup)
    context["gates"] = {k: [n, res["gate_failures"].get(k, 0)] for k, n in sorted(res["checked"].items())}
    # 0 on correct code, so it is reported here and not among the metrics
    context["error_rate"] = res["failed"] / max(res["attempted"], 1)
    if trace:
        values = res["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": sum(medians),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "cmd_p50_s": statistics.median(medians),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RunError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return context, line


def smoke():
    """Tiny runs: every metric named with its unit, and every gate fires."""
    spec, _ = load_spec()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            _, line = measure(workload, DEFAULT_SEED, 2, trace, size="tiny")
            units = {k: v["unit"] for k, v in line["metrics"].items()}
            if units != {m["name"]: m["unit"] for m in spec[group]}:
                problems.append(f"{workload} trace {trace}: metrics or units differ from BENCHMARK.json")
            if not line["correct"]:
                problems.append(f"{workload} trace {trace}: tiny run not correct")
        context, line = measure(workload, DEFAULT_SEED, 2, 0, size="tiny", corrupt=True)
        if line["failed"] != line["attempted"]:
            problems.append(f"{workload}: {line['attempted'] - line['failed']} operations passed wrong expectations")
        for kind, (checked, failed) in context["gates"].items():
            if failed != checked:
                problems.append(f"{workload}: gate {kind} fired {failed} of {checked} times")
        print(f"{workload}: gates {sorted(context['gates'])}")
    for p in problems:
        print(f"FAIL: {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    # on SIGTERM unwind, so that the worker and its children are stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            ap.error("--workload is required")
        context, line = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RunError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"context": context}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
