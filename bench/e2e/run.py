#!/usr/bin/env python3
"""Build bonsai_bench from source and run one workload of it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds bench/e2e (with the library sources under src/) into
$CARGO_TARGET_DIR/e2e, default .bench_build/e2e, runs the workload with
its inputs, spills and outputs in a scratch directory inside the build
directory, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics.  --seconds defaults to
BENCHMARK.json's run_seconds.  Build and benchmark output go to
stderr.  Exits nonzero, printing no result, when the build or the run
fails.

    python3 bench/e2e/run.py --set OUT.json [--seed N] [--seconds T]

runs every workload with its traced pass, each in a process of its
own as above, and merges their results into one file for compare.py.

    python3 bench/e2e/run.py --smoke [--exe PATH] [--work DIR]

runs every workload at ~1 MB with one measured sort plus the traced
pass, and checks that every metric BENCHMARK.json names is reported,
that no sort failed, and that the traced sorts kept the untraced
sorts' pass structure.  This is the ctest smoke test.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
# A run must end within 180 s; the first one in a checkout may take
# 900 s because it builds.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "e2e"


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "--target", "bonsai_bench",
                 "-j", jobs]):
        subprocess.run(cmd, stdout=sys.stderr, check=True,
                       timeout=BUILD_LIMIT_S)
    return out / "bonsai_bench"


def run_bench(exe, work, args, timeout):
    """Run bonsai_bench in the scratch directory `work`, then remove it;
    return (exit code, the JSON document it wrote)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "BENCH_e2e.json"
    try:
        proc = subprocess.run(
            [str(exe), "--dir", str(work), "--out", str(result)] + args,
            stdout=sys.stderr, timeout=timeout)
        if not result.exists():
            raise RuntimeError(f"bonsai_bench exited {proc.returncode} "
                               "without writing a result")
        return proc.returncode, json.loads(result.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def workload_args(name, opts, trace):
    return ["--workload", name, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(trace)]


def run_workload(spec, opts):
    start = time.monotonic()
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        raise ValueError(f"unknown workload {opts.workload}")
    exe = build()
    # The first run in a checkout compiles and may take 900 s in all;
    # every other run must end within 180 s of its start.
    build_s = time.monotonic() - start
    timeout = RUN_LIMIT_S if build_s > 60 else RUN_LIMIT_S - build_s
    code, doc = run_bench(exe, build_dir() / f"work-{os.getpid()}",
                          workload_args(opts.workload, opts, opts.trace),
                          timeout)
    point = doc["points"][0]
    metrics = spec["per_layer"] if opts.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": code == 0 and point["failed"] == 0,
        "attempted": int(point["attempted"]),
        "failed": int(point["failed"]),
        # A workload whose sorts all failed has no traced metrics.
        "metrics": {m["name"]: {"value": point.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in metrics},
    }))


def run_set(spec, opts):
    """A full set, as the baseline in results/ is made: every workload
    with its traced pass, each in its own process as the benchmark
    command runs it, merged into one file with a point per workload."""
    exe = build()
    doc = None
    for w in spec["workloads"]:
        code, one = run_bench(exe, build_dir() / f"set-{os.getpid()}",
                              workload_args(w["name"], opts, 1),
                              RUN_LIMIT_S)
        if code != 0:
            raise RuntimeError(f"{w['name']}: bonsai_bench exited {code}")
        if doc is None:
            doc = one
        else:
            doc["points"] += one["points"]
    Path(opts.set).write_text(json.dumps(doc, indent=2) + "\n")
    log(f"wrote {opts.set}")


def smoke(spec, opts):
    exe = Path(opts.exe) if opts.exe else build()
    work = Path(opts.work) if opts.work else build_dir() / "smoke"
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    code, doc = run_bench(exe, work, ["--smoke"], RUN_LIMIT_S)
    points = doc["points"]
    problems = [] if code == 0 else [f"bonsai_bench exited {code}"]
    if sorted(p["workload"] for p in points) != \
            sorted(w["name"] for w in spec["workloads"]):
        problems.append("workloads differ from BENCHMARK.json")
    for p in points:
        w = p["workload"]
        problems += [f"{w}: no {n}" for n in names if n not in p]
        if p["fail_ratio"] != 0:
            problems.append(f"{w}: fail_ratio {p['fail_ratio']}")
        if p["traced_equal"] != 1:
            problems.append(f"{w}: traced sort changed the pass structure")
        plain_ext = w in ("extsort-1pass", "extsort-multipass")
        if plain_ext and abs(p["trace.pass_sum_ratio"] - 1) > 0.05:
            problems.append(f"{w}: pass times sum to "
                            f"{p['trace.pass_sum_ratio']:.3f} of phase 2")
    for msg in problems:
        log(msg)
    log("smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="measuring time (default: BENCHMARK.json's)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", metavar="OUT",
                    help="run a full traced set into OUT")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--exe", help="prebuilt bonsai_bench (smoke only)")
    ap.add_argument("--work", help="scratch directory (smoke only)")
    opts = ap.parse_args()
    try:
        spec = json.loads(BENCHMARK.read_text())
        if opts.seconds is None:
            opts.seconds = spec["run_seconds"]
        if opts.smoke:
            return smoke(spec, opts)
        if opts.set:
            run_set(spec, opts)
            return 0
        if not opts.workload:
            ap.error("--workload, --set or --smoke is required")
        run_workload(spec, opts)
        return 0
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
