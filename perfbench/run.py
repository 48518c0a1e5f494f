#!/usr/bin/env python3
"""Benchmark of the fliess plan -> invert -> simulate chain.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload invert_deep --seed 1 --seconds 30 --trace 0

Runs one workload in this process, single-threaded, against the package
in ``src/`` of the checkout (there is nothing to build: the benchmark
measures whichever shuffle kernel ``fliess.KERNEL_BACKEND`` reports).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, prefixed ``perfbench-info``, stamps the result with versions and
details that are not gated.

``--trace 0`` reports the end-to-end metrics: setup time (the median
of several fresh interpreters that import fliess and build the
inputs), items per second, median item time and peak resident memory.
``--trace 1`` reports the per-layer metrics of one traced pass, and the
tracing overhead against one untraced pass in a fresh interpreter.
Outputs are checked against recorded references outside the timed
region; a failed check is a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

INFO_PREFIX = "perfbench-info "

# No new item starts after this many seconds, so a run ends well inside
# its 180 s limit even if the program becomes much slower.
HARD_LIMIT_S = 120.0

# Not a workload: the wall time of one default run_pipeline (50
# sections, degree 8/6) with the pure-Python kernel on a 2-core
# machine, to relate invert_deep to the north-star run.
NORTH_STAR_NOTE = {
    "default_run_pipeline_s": 183,
    "default_run_pipeline_s_roadmap": 188,
    "kernel_backend": "python",
    "nproc": 2,
}


def import_fliess():
    """Import fliess from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "fliess", "__init__.py")):
        sys.exit(f"perfbench: no fliess package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import fliess

    if os.path.dirname(os.path.dirname(os.path.abspath(fliess.__file__))) != SRC:
        sys.exit(f"perfbench: imported fliess from {fliess.__file__}, not from {SRC}")
    return fliess


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None  # no git; src_sha256 identifies the code
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "fliess")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def stamp(fliess):
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "kernel_backend": fliess.KERNEL_BACKEND,
        "machine_settings": "untouched: no CPU pinning, governor or cgroup change; per-process timers only",
        "north_star": NORTH_STAR_NOTE,
    }


def probe_setup(args):
    """Child side of a setup probe: build the inputs, then print the clock."""
    import_fliess()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    w.setup(args.seed, workloads.SIZES[args.size][args.workload])
    print(time.monotonic(), flush=True)


def measure_setup(args, probes):
    """Seconds from spawn until a fresh interpreter has imported fliess and built the inputs."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    times = []
    for _ in range(probes):
        spawned = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - spawned)
    return times


def timed_body(workload, inputs, seconds, max_passes, after_pass=None):
    """Run whole passes while another one is expected to fit in ``seconds``.

    ``after_pass`` receives the items of each pass outside the timed
    region.  Returns the items, the time per item in ms, the timed
    seconds and the seconds of each pass.
    """
    items, item_ms, pass_s = [], [], []
    start = time.perf_counter()
    while True:
        pass_items = []
        gen = workload.run_pass(inputs, len(pass_s))
        pass_start = t0 = time.perf_counter()
        for item in gen:
            t1 = time.perf_counter()
            item_ms.append(1000.0 * (t1 - t0) / item.n)
            pass_items.append(item)
            if t1 - start > HARD_LIMIT_S:
                gen.close()
                break
            t0 = time.perf_counter()
        pass_s.append(time.perf_counter() - pass_start)
        if after_pass is not None:
            after_pass(pass_items)
        items.extend(pass_items)
        body_s, passes = sum(pass_s), len(pass_s)
        if (
            passes >= max_passes
            or time.perf_counter() - start > HARD_LIMIT_S
            or body_s * (passes + 1) / passes > seconds
        ):
            return items, item_ms, body_s, pass_s


def count_failed(workload, inputs, items):
    """Failed operations: an item that raised, or whose check raised, fails whole."""
    failed = 0
    for item in items:
        if item.error is not None:
            failed += item.n
            continue
        try:
            failed += workload.check(inputs, item)
        except Exception:  # a malformed output fails its check; keep checking the rest
            traceback.print_exc()
            failed += item.n
    return failed


def tail(item_ms):
    """Item time at the highest percentile with at least ten items beyond it."""
    n = len(item_ms)
    if n < 11:
        return None
    ordered = sorted(item_ms)
    return {"value_ms": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def untraced_child(args):
    """One untraced pass in a fresh interpreter; returns (body seconds, result)."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "0", "--size", args.size, "--reference-pass",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith(INFO_PREFIX):
        sys.exit(f"perfbench: untraced reference run failed:\n{done.stderr}")
    info = json.loads(lines[-2][len(INFO_PREFIX):])
    return info["body_s"], json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the benchmark's own tests")
    # the traced run's untraced reference: one pass and no setup probes
    parser.add_argument("--reference-pass", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        return probe_setup(args)
    fliess = import_fliess()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    max_passes = 1 if args.reference_pass or workload.single_pass else sys.maxsize
    info = {"workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace}
    metrics = {}
    failed = 0
    untraced = {"attempted": 0, "failed": 0}

    if args.trace:
        import spans

        untraced_s, untraced = untraced_child(args)
        recorder = spans.SpanRecorder(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        inputs = workload.setup(args.seed, size[args.workload])
        recorder.install()
        try:
            items, item_ms, body_s, pass_s = timed_body(workload, inputs, args.seconds, 1)
        finally:
            recorder.uninstall()
        failed = count_failed(workload, inputs, items)
        for name, (value, unit) in spans.layer_metrics(recorder).items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_ratio"] = {"value": body_s / untraced_s, "unit": "ratio"}
        spans_path = os.path.join(workloads.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        recorder.write(spans_path)
        info.update(spans_file=os.path.relpath(spans_path, ROOT), spans=len(recorder.spans),
                    untraced_body_s=untraced_s, unwrapped=recorder.missing)
    else:
        probes = 0 if args.reference_pass else size["setup_probes"]
        # half the setup probes before the timed body and half after it,
        # so that they sample the machine at both ends of the run
        setup_samples = measure_setup(args, (probes + 1) // 2)
        inputs = workload.setup(args.seed, size[args.workload])

        def check_pass(pass_items):
            nonlocal failed
            failed += count_failed(workload, inputs, pass_items)
            for item in pass_items:
                item.output = None  # memory must not grow with the number of passes

        items, item_ms, body_s, pass_s = timed_body(workload, inputs, args.seconds, max_passes, check_pass)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["items_per_s"] = {"value": sum(item.n for item in items) / body_s, "unit": "1/s"}
        metrics["item_ms_p50"] = {"value": statistics.median(item_ms), "unit": "ms"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        info["item_ms_tail"] = tail(item_ms)
        setup_samples += measure_setup(args, probes // 2)
        if setup_samples:
            metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
            info["setup_samples_s"] = setup_samples

    attempted = sum(item.n for item in items) + untraced["attempted"]
    failed += untraced["failed"]
    if workload.cleanup is not None:
        workload.cleanup(inputs)
    info.update(pass_s=pass_s, body_s=body_s, stamp=stamp(fliess))
    print(INFO_PREFIX + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
