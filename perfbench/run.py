#!/usr/bin/env python3
"""ntom benchmark entry point.

    python3 perfbench/run.py --workload boolean|probability|service \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the two runners
from source into .bench_build/perfbench (first run only), runs the
workload and prints, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 the
per-layer metrics, taken from a traced run of exactly the work an
untraced run did in S seconds (whose accuracy rows it must reproduce).
The line before it is the run's provenance. Every result is also kept
under .bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("boolean", "probability", "service")
# Two workers leave the other vCPUs to the OS and to other processes: on
# a shared 4-vCPU host, a workload that keeps every vCPU busy measures
# the scheduler as much as the program.
MAX_WORKERS = 2
MAX_BUILD_JOBS = 4
RUNNER_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # write nothing into the benchmark sources.
sys.path.insert(0, HERE)
import analysis  # noqa: E402


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds both runners (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no ntom sources under {ROOT}: run from a repository checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a", encoding="utf-8") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(build_jobs()),
                      "--target", "ntom_bench", "ntom_bench_traced"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                fail(f"build failed; see {log_path}")


def available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_jobs():
    return max(1, min(MAX_BUILD_JOBS, available_cpus()))


def workers():
    return max(1, min(MAX_WORKERS, available_cpus()))


def drive(binary, args, name):
    """Runs one runner process and returns its record."""
    out = os.path.join(BUILD, "work", name + ".json")
    cmd = [os.path.join(BUILD, binary), f"--out={out}",
           f"--work-dir={os.path.join(BUILD, 'work')}"] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{binary} timed out")
    if proc.returncode != 0:
        fail(f"{binary} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def source_digest():
    """sha256 over the library sources and build files (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(record, args, threads):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "simd_active": record["simd_active"],
        "simd_detected": record["simd_detected"],
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "workers": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    threads = workers()
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--threads={threads}"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.time()

    untraced = drive("ntom_bench", common + [f"--seconds={args.seconds}"],
                     tag)
    attempted = int(untraced["attempted"])
    failed = int(untraced["failed"])
    failures = list(untraced["failures"])
    if args.trace == 0:
        metrics = analysis.end_to_end(untraced)
    else:
        # The traced run repeats exactly the untraced run's work.
        if args.workload == "service":
            amount = f"--chunks={int(untraced['chunks'])}"
        else:
            amount = f"--rounds={len(untraced['round_seconds'])}"
        spans_path = os.path.join(BUILD, "work", tag + ".spans.tsv")
        traced = drive("ntom_bench_traced",
                       common + [amount, f"--spans={spans_path}"],
                       tag + "-traced")
        attempted += int(traced["attempted"]) + 1
        failed += int(traced["failed"])
        failures += traced["failures"]
        if traced["accuracy"] != untraced["accuracy"]:
            failed += 1
            failures.append("traced accuracy rows differ from untraced")
        metrics = analysis.per_layer(
            traced, analysis.read_spans(spans_path), untraced)
        os.remove(spans_path)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    stamp = provenance(untraced, args, threads)
    details = {}
    if args.workload == "service":
        # How late the open-loop reader started its reads (its own lag,
        # already included in the read latencies).
        late = analysis.reader_lateness_us(untraced)
        details["reader_late_us_p50"] = analysis.percentile(late, 0.50)
        details["reader_late_us_p99"] = analysis.percentile(late, 0.99)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", tag + ".json"), "w",
              encoding="utf-8") as f:
        json.dump({"provenance": stamp, "details": details,
                   "failures": failures,
                   "elapsed_s": time.time() - started, **result}, f,
                  indent=1)
    for message in failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    if details:
        print(json.dumps({"details": details}))
    print(json.dumps({"provenance": stamp}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
