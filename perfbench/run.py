#!/usr/bin/env python3
"""Benchmark for the gaussworld splat -> fit -> forecast -> plan stack.

Run from the repository root:

    python3 perfbench/run.py --workload fit_corridor --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each workload is one single-process closed loop: one client issues the next
operation when the previous one returns. ``--trace 0`` prints the end-to-end
metrics with tracing off; ``--trace 1`` wraps the package's public functions
from outside (see tracer.py), alternates untraced and traced operations on the
same inputs, and prints per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The program is imported from the
``src/`` directory beside this one and from nowhere else.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("fit_corridor", "plan_oncoming", "gradcheck_small", "bev_cli")
MODULES = ("core", "grid", "splat", "fit", "flow", "plan", "metrics", "io", "synth", "cli")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up runs in two bursts, before and after the timed operations, each at
# least SETUP_MIN_REPS times and until it has taken SETUP_BURST_S. Every
# repetition is calibrated like an operation stage and scaled back to seconds
# with calibrate.REFERENCE_S; setup_s is the median of all of them.
SETUP_MIN_REPS = 2
SETUP_MAX_REPS = 5
SETUP_BURST_S = 1.0
MIN_OPS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import gaussworld from ./src only; fail if it resolves anywhere else."""
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("gaussworld")
    for name in MODULES:
        importlib.import_module(f"gaussworld.{name}")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "gaussworld"):
        raise ImportError(f"gaussworld resolved to {pkg.__file__}, not to {SRC}")


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, "rb") as f:
            src_lines += f.read().count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "src_lines": src_lines,
    }


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def setup_burst(wl, seed, directory, times, calibrated):
    """Set up repeatedly in `directory`, appending each wall time and its
    calibrated equivalent in reference seconds; returns the last state."""
    import calibrate

    start = len(times)
    before = calibrate.timed()
    while len(times) - start < SETUP_MIN_REPS or (
        sum(times[start:]) < SETUP_BURST_S and len(times) - start < SETUP_MAX_REPS
    ):
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        t0 = time.perf_counter()
        state = wl.setup(seed, directory)
        times.append(time.perf_counter() - t0)
        after = calibrate.timed()
        calibrated.append(2.0 * calibrate.REFERENCE_S * times[-1] / (before + after))
        before = after
    return state


def measure(wl, seed, seconds, trace, workdir, layers):
    """Set up, run operations until `seconds` would be exceeded, then set up again."""
    import calibrate
    from tracer import SETUP_OP, Tracer

    setup_times, setup_calibrated = [], []
    state = setup_burst(wl, seed, os.path.join(workdir, "setup"), setup_times, setup_calibrated)

    span_names = [n for names in layers["wrapped"].values() for n in names]
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(span_names)
        d = os.path.join(workdir, "traced_setup")
        os.makedirs(d)
        tracer.op = SETUP_OP
        wl.setup(seed, d)
        tracer.op = None

    # Every stage of an operation sits between two calibration passes. The
    # stage's time over their mean, summed over the stages, is the cost that
    # op_rel_p50 reports: it follows the program, not the host's current speed.
    calib = [calibrate.timed()]

    def run_op(inputs):
        results, times, cost = [], [], 0.0
        for stage in wl.stages(state, inputs):
            t0 = time.perf_counter()
            try:
                results.append(stage(results))
                times.append(time.perf_counter() - t0)
            finally:
                calib.append(calibrate.timed())
            cost += 2.0 * times[-1] / (calib[-2] + calib[-1])
        return results, times, cost

    samples, rel, traced_rel, values, failures = [], [], [], [], []
    failed_ops = 0
    first_digest = None
    start = time.perf_counter()
    i = 0
    while True:
        inputs = wl.inputs(state, i)
        try:
            result, times, cost = run_op(inputs)
            samples.append(times)
            rel.append(cost)
            problems, out_digest, vals = wl.check(state, inputs, result)
            values.append(vals)
        except Exception as e:  # a failing operation counts against error_rate; the loop goes on
            problems, out_digest = [f"op raised {type(e).__name__}: {e}"], None
        if out_digest is not None and wl.repeats_inputs:
            first_digest = first_digest or out_digest
            if out_digest != first_digest:
                problems.append("output differs from the first operation's on the same inputs")
        if tracer is not None and out_digest is not None:
            inputs = wl.inputs(state, i)
            tracer.op = i
            try:
                result, _, cost = run_op(inputs)
            except Exception as e:
                result = None
                problems.append(f"traced op raised {type(e).__name__}: {e}")
            finally:
                tracer.op = None  # the checks are not part of the operation
            if result is not None:
                traced_rel.append(cost)
                if wl.check(state, inputs, result)[1] != out_digest:
                    problems.append("traced output differs from the untraced output")
        if problems:
            failed_ops += 1
            failures.extend(f"op {i}: {p}" for p in problems)
        i += 1
        elapsed = time.perf_counter() - start
        if i >= MIN_OPS and elapsed * (i + 1) / i > seconds:
            break
    window = time.perf_counter() - start
    setup_burst(wl, seed, os.path.join(workdir, "setup_after"), setup_times, setup_calibrated)

    out = {
        "attempted": i,
        "failed": failed_ops,
        "failures": failures,
        "setup_times": setup_times,
        "setup_calibrated": setup_calibrated,
        "samples": samples,
        "rel": rel,
        "window": window,
        "calib": calib,
        "named": wl.report(samples, values) if samples and len(values) == len(samples) else {},
    }
    if tracer is not None:
        tracer.uninstall()
        out["traced_rel"] = traced_rel
        out["tracer"] = tracer
        out["span_names"] = span_names
    return out


def run_one(args):
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # the stack is single-threaded; keep BLAS to one thread per process
    try:
        import_program()
    except ImportError as e:
        print(f"error: cannot import gaussworld from {SRC}: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    env = environment()
    wl = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{wl.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        res = measure(wl, args.seed, args.seconds, args.trace, workdir, layers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"workload {wl.name} seed {args.seed} trace {args.trace}: {res['attempted']} ops in "
        f"{res['window']:.2f} s, closed loop, 1 client"
    )
    for msg in res["failures"]:
        print(f"  FAILED check, {msg}")
    correct = res["failed"] == 0
    samples = res["samples"]
    if args.trace:
        metrics, missing = traced_metrics(res, args, env, wl.name, layers)
        for name in missing:
            print(f"  FAILED check, expected span {name} was never hit")
        correct = correct and not missing
    else:
        metrics = {
            "op_rel_p50": (statistics.median(res["rel"]) if samples else float("nan"), "ratio", len(samples)),
            "setup_s": (statistics.median(res["setup_calibrated"]), "s", len(res["setup_calibrated"])),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
        named = {
            "op_s_p50": (statistics.median([sum(t) for t in samples]) if samples else float("nan"), "s", len(samples)),
            "setup_wall_s": (statistics.median(res["setup_times"]), "s", len(res["setup_times"])),
            "calibration_s_p50": (statistics.median(res["calib"]), "s", len(res["calib"])),
            **res["named"],
            "error_rate": (res["failed"] / res["attempted"], "failed/attempted", res["attempted"]),
        }
        for name, (value, unit, n) in list(metrics.items()) + list(named.items()):
            print(f"  {name} = {value:.6g} {unit} (n={n})")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def traced_metrics(res, args, env, name, layers):
    """Per-layer metrics from the traced run, plus the expected spans that never fired."""
    from tracer import SETUP_OP

    tracer = res["tracer"]
    n = len(res["traced_rel"])
    values, hit = tracer.summarize(res["span_names"], n)
    # compared on calibrated cost, so a host slowdown between the two halves is not read as overhead
    values["trace.overhead_pct"] = (
        100.0 * (statistics.median(res["traced_rel"]) / statistics.median(res["rel"]) - 1.0) if n else float("nan")
    )
    expected = layers["expected"][name]
    missing = [f"{s} (ops)" for s in expected["ops"] if not hit["ops"].get(s)]
    missing += [f"{s} (setup)" for s in expected["setup"] if not hit[SETUP_OP].get(s)]
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    path = os.path.join(WORK, "traces", f"{name}-s{args.seed}.jsonl")
    tracer.dump(path, {"workload": name, "seed": args.seed, "env": env, "ops": n})
    print(f"  spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    for key in sorted(values):
        if values[key]:
            per = "one traced set-up" if key.startswith("setup.") else f"per op over {n} traced ops"
            print(f"  {key} = {values[key]:.6g} {per_layer_unit(key)} ({per})")
    return {k: (v, per_layer_unit(k)) for k, v in values.items()}, missing


def run_all(args):
    """Run every workload in its own process, so peak RSS stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        doc = json.loads(lines[-1])
        correct &= doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        metrics.update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gaussworld", "__init__.py")):
        print(f"error: no gaussworld package under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
