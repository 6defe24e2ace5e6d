#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. A deliberately corrupted reference row makes the benchmark binary exit non-zero
   with "correct": false, so the correctness gate is not vacuous.
2. The result validation in run.py rejects a metric BENCHMARK.json does
   not declare, a declared metric that is missing and a wrong unit.
3. Short tolerance_q_sweep runs in both modes print exactly the declared
   metrics (run.py enforces it on every run).
4. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.

Scratch files live under the build directory and are removed.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # no __pycache__ in the source tree
import run  # noqa: E402  (perfbench/run.py)


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    return bool(condition)


def corrupted_reference(binary, scratch):
    source = os.path.join(HERE, "reference", "tolerance_q_sweep.tsv")
    corrupt = os.path.join(scratch, "corrupt.tsv")
    with open(source) as handle:
        lines = handle.read().splitlines()
    for i, line in enumerate(lines):
        fields = line.split("\t")
        if fields[0] == "row":
            code = int(fields[2].split(",")[0].split("=")[1])
            fields[2] = fields[2].replace("code=%d" % code, "code=%d" % (code + 1), 1)
            lines[i] = "\t".join(fields)
            break
    with open(corrupt, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    code, out = run.run_bench(binary, [
        "--workload", "tolerance_q_sweep", "--seed", "1", "--seconds", "0", "--trace", "0",
        "--reference", corrupt, "--work-dir", os.path.join(scratch, "work")])
    result = json.loads(out[-1]) if out else {}
    return check(code != 0 and result.get("correct") is False and result.get("failed", 0) >= 1,
                 "corrupted reference row fails the run (exit %d, correct=%s)"
                 % (code, result.get("correct")))


def validation(benchmark):
    ok = True
    for trace in (0, 1):
        declared = run.declared_metrics(benchmark, trace)
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {n: {"value": 1.5, "unit": u} for n, u in declared.items()}}
        ok &= check(not run.check_result(json.dumps(good), declared),
                    "trace %d: a result with exactly the declared metrics passes" % trace)
        extra = json.loads(json.dumps(good))
        extra["metrics"]["undeclared.metric"] = {"value": 1.0, "unit": "s"}
        ok &= check(run.check_result(json.dumps(extra), declared),
                    "trace %d: an undeclared metric is rejected" % trace)
        missing = json.loads(json.dumps(good))
        missing["metrics"].pop(sorted(declared)[0])
        ok &= check(run.check_result(json.dumps(missing), declared),
                    "trace %d: a missing declared metric is rejected" % trace)
        unit = json.loads(json.dumps(good))
        unit["metrics"][sorted(declared)[0]]["unit"] = "furlong"
        ok &= check(run.check_result(json.dumps(unit), declared),
                    "trace %d: a wrong unit is rejected" % trace)
    return ok


def short_runs():
    ok = True
    for trace in ("0", "1"):
        proc = subprocess.run(
            ["python3", os.path.join(HERE, "run.py"), "--workload", "tolerance_q_sweep",
             "--seed", "7", "--seconds", "1", "--trace", trace],
            cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            universal_newlines=True)
        ok &= check(proc.returncode == 0,
                    "run.py --trace %s prints exactly the declared metrics (exit %d)"
                    % (trace, proc.returncode))
    return ok


def bare_directory(scratch):
    bare = os.path.join(scratch, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "tolerance_q_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        universal_newlines=True, timeout=180)
    last = proc.stdout.splitlines()[-1] if proc.stdout.strip() else ""
    return check(proc.returncode != 0 and not last.startswith("{"),
                 "without the sources run.py fails without a result (exit %d)" % proc.returncode)


def main():
    benchmark = run.load_benchmark()
    binary = run.build()
    scratch = os.path.join(run.build_dir(), "selfcheck")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        ok = corrupted_reference(binary, scratch)
        ok &= validation(benchmark)
        ok &= short_runs()
        ok &= bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selfcheck: " + ("all passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
