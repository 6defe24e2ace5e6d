#!/usr/bin/env python3
"""Schema-check the merged fleet telemetry artifacts (DESIGN.md §15).

Usage:
    scripts/validate_trace.py TRACE.json [--forensics FORENSICS.jsonl]
                              [--metrics METRICS.json]

Checks, per artifact:

  TRACE.json       a Chrome trace-event document: top-level object with a
                   "traceEvents" list; every event carries "ph" and
                   "pid"; process_name metadata names each pid; complete
                   ("X") events have a non-negative "dur"; and within
                   every pid the non-metadata timestamps are monotone
                   non-decreasing -- the invariant Perfetto's track
                   builder relies on.
  --forensics      one flat JSON object per line with the full worker
                   post-mortem key set (event taxonomy, exit code /
                   signal, rusage, last checkpoint index, stderr tail);
                   a nonzero signal must come with its conventional name.
  --metrics        the deterministic fleet merge: integer counters, no
                   gauges, histograms with len(counts) == len(bounds)+1
                   and count == sum(counts), and no wall-clock
                   (*.wall_ms) histograms -- those belong to summary.json.

Exit 0 when every requested artifact passes; exit 1 with one line per
problem otherwise.  Stdlib only -- safe to run on a bare CI image.
"""

from __future__ import annotations

import argparse
import json
import sys

FORENSICS_KEYS = {
    "ts_unix_ms",
    "shard",
    "shards",
    "attempt",
    "pid",
    "event",
    "exit_code",
    "signal",
    "signal_name",
    "wall_s",
    "cpu_user_s",
    "cpu_sys_s",
    "max_rss_kb",
    "last_checkpoint_index",
    "checkpoint_records",
    "stderr_tail",
}
FORENSICS_EVENTS = {"exit", "crash", "timeout", "shutdown", "spawn_error"}


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        sys.exit(f"error: cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        sys.exit(f"error: {path} is not valid JSON: {err}")


def check_trace(path: str) -> list[str]:
    doc = load_json(path)
    problems: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return [f"{path}: top level must be an object with a 'traceEvents' list"]
    named_pids = set()
    last_ts: dict[int, float] = {}
    events = doc["traceEvents"]
    for i, event in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        pid = event.get("pid")
        if not isinstance(ph, str) or not ph:
            problems.append(f"{where}: missing 'ph'")
            continue
        if not isinstance(pid, int):
            problems.append(f"{where}: missing integer 'pid'")
            continue
        if ph == "M":
            if event.get("name") == "process_name":
                named_pids.add(pid)
            continue
        ts = event.get("ts")
        if not isinstance(event.get("tid"), int):
            problems.append(f"{where}: missing integer 'tid'")
        if not isinstance(ts, (int, float)):
            problems.append(f"{where}: missing numeric 'ts'")
            continue
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'X' event needs a non-negative 'dur'")
        if pid in last_ts and ts < last_ts[pid]:
            problems.append(
                f"{where}: ts {ts} goes backwards within pid {pid} "
                f"(previous {last_ts[pid]})"
            )
        last_ts[pid] = ts

    unnamed = sorted(set(last_ts) - named_pids)
    if unnamed:
        problems.append(f"{path}: pids {unnamed} have no process_name metadata")
    if not problems:
        print(
            f"{path}: {len(events)} events across {len(last_ts)} shard pid(s), "
            "timestamps monotone per pid"
        )
    return problems


def check_forensics(path: str) -> list[str]:
    problems: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        return [f"error: cannot read {path}: {err}"]
    rows = 0
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{i}"
        try:
            row = json.loads(line)
        except json.JSONDecodeError as err:
            problems.append(f"{where}: not valid JSON: {err}")
            continue
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        rows += 1
        missing = FORENSICS_KEYS - row.keys()
        if missing:
            problems.append(f"{where}: missing keys {sorted(missing)}")
        event = row.get("event")
        if event not in FORENSICS_EVENTS:
            problems.append(f"{where}: unknown event {event!r}")
        signal = row.get("signal")
        if isinstance(signal, int) and signal > 0 and not row.get("signal_name"):
            problems.append(f"{where}: signal {signal} has no signal_name")
    if rows == 0:
        problems.append(f"{path}: no forensics rows at all")
    if not problems:
        print(f"{path}: {rows} forensics rows, all well-formed")
    return problems


def check_metrics(path: str) -> list[str]:
    doc = load_json(path)
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"]
    if doc.get("gauges"):
        problems.append(f"{path}: merged fleet metrics must not contain gauges")
    for name, value in (doc.get("counters") or {}).items():
        if not isinstance(value, int) or value < 0:
            problems.append(f"{path}: counter {name!r} is not a non-negative integer")
    histograms = doc.get("histograms") or {}
    for name, hist in histograms.items():
        where = f"{path}: histogram {name!r}"
        if name.endswith(".wall_ms"):
            problems.append(f"{where}: wall-clock data belongs in summary.json")
        bounds = hist.get("bounds")
        counts = hist.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            problems.append(f"{where}: missing bounds/counts arrays")
            continue
        if len(counts) != len(bounds) + 1:
            problems.append(
                f"{where}: {len(counts)} counts for {len(bounds)} bounds "
                "(need bounds + overflow)"
            )
        if hist.get("count") != sum(counts):
            problems.append(f"{where}: count {hist.get('count')} != sum(counts)")
    if not problems:
        print(
            f"{path}: {len(doc.get('counters') or {})} counters, "
            f"{len(histograms)} deterministic histograms"
        )
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="?", help="merged Chrome trace (trace.json)")
    parser.add_argument("--forensics", help="forensics.jsonl to validate")
    parser.add_argument("--metrics", help="merged metrics.json to validate")
    args = parser.parse_args()
    if not (args.trace or args.forensics or args.metrics):
        parser.error("nothing to validate: pass a trace, --forensics or --metrics")

    problems: list[str] = []
    if args.trace:
        problems += check_trace(args.trace)
    if args.forensics:
        problems += check_forensics(args.forensics)
    if args.metrics:
        problems += check_metrics(args.metrics)
    for problem in problems:
        print(problem, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
