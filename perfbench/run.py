#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the library and the
benchmark binary from source into the build directory ($CARGO_TARGET_DIR, default
.bench_build), runs one workload in a scratch directory under it that is
removed afterwards, checks that every printed metric is declared in
BENCHMARK.json, and passes the benchmark binary's report through.  The last stdout
line is the JSON result; the exit code is non-zero when the build fails,
an output is wrong or the result does not match BENCHMARK.json.

Extra options: --write-reference regenerates the committed reference rows
of the workload for the given seed; --keep-trace FILE keeps the span trace
of a --trace 1 run (FILE must lie inside the checkout).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_TIMEOUT_S = 170
THREADS = "4"


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def inside_root(path):
    real = os.path.realpath(path)
    return real == ROOT or real.startswith(ROOT + os.sep)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(path) as handle:
        return json.load(handle)


def build_dir():
    path = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not inside_root(path):
        path = os.path.join(ROOT, ".bench_build")
    return os.path.realpath(path)


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no lcosc source tree at " + ROOT + " (CMakeLists.txt and src/ are required)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = os.path.join(build_dir(), "cmake")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "lcosc_perfbench", "-j", THREADS])
    for step in steps:
        # Build logs go to stderr: stdout ends with the result line.
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr, env=scratch_env()) != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "lcosc_perfbench")


def declared_metrics(benchmark, trace):
    group = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, expected):
    """Problems with a result line against the declared metric set."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last stdout line is not JSON"]
    problems = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, metrics"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    for name in sorted(set(metrics) - set(expected)):
        problems.append("metric %s is not declared in BENCHMARK.json" % name)
    for name in sorted(set(expected) - set(metrics)):
        problems.append("declared metric %s was not printed" % name)
    for name in sorted(set(expected) & set(metrics)):
        if metrics[name].get("unit") != expected[name]:
            problems.append("metric %s has unit %r, BENCHMARK.json says %r"
                            % (name, metrics[name].get("unit"), expected[name]))
        if not isinstance(metrics[name].get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    return problems


def scratch_env():
    """Environment whose temporary files (compiler, LTO) stay in the build dir."""
    env = dict(os.environ)
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def bench_env():
    env = scratch_env()
    env["LCOSC_THREADS"] = THREADS
    env["LCOSC_METRICS"] = "0"
    env["LCOSC_TRACE"] = "0"
    # One malloc arena: peak RSS then follows the live set instead of the
    # per-thread arena high-water marks, which vary with case scheduling.
    env["MALLOC_ARENA_MAX"] = "1"
    env.pop("LCOSC_EVENTS", None)
    return env


def run_bench(binary, argv):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE, env=bench_env(),
                            cwd=ROOT, universal_newlines=True)
    try:
        stdout, _ = proc.communicate(timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark binary timed out after %d s" % BENCH_TIMEOUT_S)
    return proc.returncode, stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--keep-trace")
    args = parser.parse_args()

    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        fail("unknown workload %s (BENCHMARK.json has %s)" % (args.workload, ", ".join(names)))
    binary = build()

    work = os.path.join(build_dir(), "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--reference", os.path.join(HERE, "reference", args.workload + ".tsv"),
            "--work-dir", work]
    if args.write_reference:
        argv.append("--write-reference")
    if args.keep_trace:
        if not inside_root(os.path.dirname(os.path.abspath(args.keep_trace)) or "."):
            fail("--keep-trace must name a file inside the checkout")
        argv += ["--trace-out", os.path.abspath(args.keep_trace)]
    try:
        code, lines = run_bench(binary, argv)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not lines:
        fail("benchmark binary printed nothing (exit code %d)" % code)
    for line in lines[:-1]:
        print(line)
    problems = check_result(lines[-1], declared_metrics(benchmark, args.trace))
    if problems:
        fail("; ".join(problems), 3)
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
