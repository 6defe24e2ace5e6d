#!/usr/bin/env bash
# Tier-1 verify: the exact command from ROADMAP.md, runnable from anywhere.
#
#   scripts/tier1.sh              full build + complete test suite
#   scripts/tier1.sh --sanitize   ASan+UBSan build of the fault-injection
#                                 and campaign suites (separate build dir)
#   scripts/tier1.sh --tsan       ThreadSanitizer build of the telemetry,
#                                 parallel-engine and campaign suites
#   scripts/tier1.sh --bench      run bench_perf_campaigns and check the
#                                 telemetry.phases timings against the
#                                 committed per-host baseline
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--bench" ]]; then
  cmake -B build -S . && cmake --build build -j --target bench_perf_campaigns
  # bench_perf_campaigns writes BENCH_campaigns.json into the cwd; run it
  # from the repo root so the committed record is the one refreshed.
  ./build/bench/bench_perf_campaigns
  # Baselines are tagged by OS + core count: wall times are only
  # comparable on similar hosts.  First run on a new host seeds the
  # baseline instead of failing.
  tag="$(uname -s | tr '[:upper:]' '[:lower:]')-$(nproc)c"
  baseline="bench/baselines/${tag}.json"
  if [[ ! -f "$baseline" ]]; then
    mkdir -p bench/baselines
    cp BENCH_campaigns.json "$baseline"
    echo "no baseline for host tag '${tag}'; seeded ${baseline} from this run"
    exit 0
  fi
  # Single-digit-millisecond phases flap by tens of percent from timer
  # noise alone on small hosts, and back-to-back identical runs differ by
  # ~30% under container CPU contention; gate only phases long enough to
  # mean something, and only against step-change regressions.  Tighter
  # tracking belongs on a quiet dedicated host with its own baseline tag.
  scripts/check_bench_drift.py "$baseline" BENCH_campaigns.json --min-ms 5 --threshold 0.6
  exit 0
fi

if [[ "${1:-}" == "--sanitize" ]]; then
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
  # Build the whole tree: gtest discovery registers a NOT_BUILT placeholder
  # per missing binary, which ctest would report as a failure.
  cmake --build build-asan -j
  cd build-asan
  # gtest_discover_tests registers Suite.Case names; match the suites of
  # the fault-injection, campaign and batched-lockstep binaries, the
  # flush-to-zero guard's throw paths, the trajectory-sharing fault sweep,
  # the engine's hexfloat fixture, same-instant scenario events, and the
  # JSON reader with its seeded mutation fuzzer.  (-R must precede the bare
  # -j or ctest parses it as the job count.)
  ctest --output-on-failure \
    -R '^(Campaign|Internal|Fault|Fmea|Parallel|System|Tolerance|Batched|DeviceBanks|Checkpoint|NumericNameLess|Service|FleetObs|RunSession|FlushToZero|TelemetryDeterminism|Json|SharedTrajectory|Scenario|EngineFixture)' -j
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  # ThreadSanitizer pass over everything that runs worker threads: the
  # telemetry layer (sharded metrics, per-thread trace buffers, the event
  # log mutex), the thread-pool engine and the campaign runners (4 workers
  # copying one const settle prefix, one shared-trajectory group each).  IPO is off: TSan instrumentation
  # and LTO interact badly on some toolchains.
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLCOSC_ENABLE_IPO=OFF \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
  cmake --build build-tsan -j
  cd build-tsan
  ctest --output-on-failure \
    -R '^(Obs|Telemetry|JsonValidator|Campaign|Internal|Fault|Fmea|Parallel|System|Checkpoint|NumericNameLess|Service|FleetObs|RunSession|FlushToZero|SharedTrajectory)' -j
  exit 0
fi

cmake -B build -S . && cmake --build build -j && cd build && ctest --output-on-failure -j

# Smoke step: the transient solver's cached-base/LU-reuse path must be
# bit-identical to the full re-stamp reference on linear, time-varying
# and nonlinear circuits (the *BitIdentical* suites compare every trace
# sample with exact equality).
./tests/test_spice_reuse --gtest_filter='TransientReuse.*BitIdentical*'

# Smoke step: with adaptive stepping off (the default) the solver must
# reproduce the pre-adaptive golden trace byte for byte (hexfloat dump
# committed in tests/data/transient_fixed_reference.txt).
./tests/test_spice_adaptive --gtest_filter='TransientAdaptive.FixedPathMatchesPrePrGoldenTrace'

# Smoke step: the batched lockstep engines must be byte-identical to the
# serial reference — the tolerance campaign (report-level diff across
# engines and worker counts) and the batched envelope path (per-sample
# trace equality).
./tests/test_tolerance --gtest_filter='ToleranceBatched.*:ToleranceSeeding.*'
./tests/test_batched_envelope --gtest_filter='BatchedEnvelope.*'

# Smoke step: crash-resilient campaign service (DESIGN.md §13).  Start a
# sharded campaign, kill -9 a worker mid-run and then the coordinator
# itself, resume from the checkpoints, and require the finished report to
# be byte-identical to the uninterrupted single-process run.  (If the
# campaign outruns the kill on a fast host the resume is a no-op and the
# diff still gates the determinism contract.)
svc=./examples/campaign_service
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
"$svc" --kind tolerance --samples 96 --shards 1 \
  --checkpoint-dir "$smoke_dir/ref" --report "$smoke_dir/ref_report.txt" --quiet >/dev/null

"$svc" --kind tolerance --samples 96 --shards 2 \
  --checkpoint-dir "$smoke_dir/run" --report "$smoke_dir/run_report.txt" --quiet \
  >/dev/null 2>&1 &
coord=$!
# Kill the first worker that appears (workers are identifiable by the
# --lcosc-spec path inside our private smoke dir), then the coordinator.
for _ in $(seq 1 100); do
  worker=$(pgrep -f -- "--lcosc-spec $smoke_dir/run" | head -n1 || true)
  if [[ -n "${worker}" ]]; then
    kill -9 "$worker" 2>/dev/null || true
    break
  fi
  sleep 0.01
done
kill -9 "$coord" 2>/dev/null || true
wait "$coord" 2>/dev/null || true
# Reap any orphaned worker before resuming.
pkill -9 -f -- "--lcosc-spec $smoke_dir/run" 2>/dev/null || true
rm -f "$smoke_dir/run_report.txt"

"$svc" --kind tolerance --samples 96 --shards 2 \
  --checkpoint-dir "$smoke_dir/run" --report "$smoke_dir/run_report.txt" --quiet >/dev/null
cmp "$smoke_dir/ref_report.txt" "$smoke_dir/run_report.txt"
echo "service kill/resume smoke: report byte-identical to the single-process run"

# Smoke step: batch-aware shard drain (DESIGN.md §16).  The same campaign
# drained case by case (--chunk-lanes 1) across 3 shards must render the
# byte-identical report to the single-process lockstep-chunked reference
# above -- the chunk layout is a performance knob, never a result bit.
"$svc" --kind tolerance --samples 96 --shards 3 --chunk-lanes 1 \
  --checkpoint-dir "$smoke_dir/chunk1" --report "$smoke_dir/chunk1_report.txt" --quiet >/dev/null
cmp "$smoke_dir/ref_report.txt" "$smoke_dir/chunk1_report.txt"
echo "chunked drain smoke: per-case and lockstep-chunked reports byte-identical"

# The same for external FMEA (DESIGN.md §17): one shared settle prefix
# per chunk in the single-process run, one per case across 3 shards.
# With telemetry on, the merged metrics.json must be byte-identical too,
# including the replayed-step count of the faulted continuations
# (DESIGN.md §20).
LCOSC_METRICS=1 "$svc" --kind fmea --shards 1 \
  --checkpoint-dir "$smoke_dir/fmea_ref" --report "$smoke_dir/fmea_ref_report.txt" --quiet >/dev/null
LCOSC_METRICS=1 "$svc" --kind fmea --shards 3 --chunk-lanes 1 \
  --checkpoint-dir "$smoke_dir/fmea_chunk1" --report "$smoke_dir/fmea_chunk1_report.txt" \
  --quiet >/dev/null
cmp "$smoke_dir/fmea_ref_report.txt" "$smoke_dir/fmea_chunk1_report.txt"
cmp "$smoke_dir/fmea_ref/telemetry/metrics.json" "$smoke_dir/fmea_chunk1/telemetry/metrics.json"
grep -q '"system.replayed_steps"' "$smoke_dir/fmea_ref/telemetry/metrics.json"
echo "fmea chunked drain smoke: per-case and shared-prefix reports and merged metrics byte-identical"

# Internal FMEA (DESIGN.md §18): in the single-process run, faults whose
# drive stages agree share one continuation of the span's settle prefix;
# across 3 shards with one case per chunk nothing is shared.  Then the
# merged telemetry: metrics.json byte-identical for 2 and 3 shards,
# whatever groups each layout forms.
printf '{"campaign": "internal_fmea", "settle_ms": 1, "observe_ms": 3}\n' \
  > "$smoke_dir/ifmea_spec.json"
"$svc" --spec "$smoke_dir/ifmea_spec.json" --shards 1 \
  --checkpoint-dir "$smoke_dir/ifmea_ref" --report "$smoke_dir/ifmea_ref_report.txt" \
  --quiet >/dev/null
"$svc" --spec "$smoke_dir/ifmea_spec.json" --shards 3 --chunk-lanes 1 \
  --checkpoint-dir "$smoke_dir/ifmea_chunk1" --report "$smoke_dir/ifmea_chunk1_report.txt" \
  --quiet >/dev/null
cmp "$smoke_dir/ifmea_ref_report.txt" "$smoke_dir/ifmea_chunk1_report.txt"
for shards in 2 3; do
  LCOSC_METRICS=1 "$svc" --spec "$smoke_dir/ifmea_spec.json" --shards "$shards" \
    --checkpoint-dir "$smoke_dir/ifmea_obs$shards" \
    --report "$smoke_dir/ifmea_obs${shards}_report.txt" --quiet >/dev/null
done
cmp "$smoke_dir/ifmea_obs2/telemetry/metrics.json" "$smoke_dir/ifmea_obs3/telemetry/metrics.json"
echo "internal fmea smoke: shared-trajectory and per-case reports and merged metrics byte-identical"

# Smoke step: fleet observability (DESIGN.md §15).  With telemetry on,
# the coordinator must merge the shard flush files into one metrics.json
# that is byte-identical for every shard layout, plus a schema-valid
# fleet Chrome trace and forensics log.
for shards in 2 3; do
  LCOSC_METRICS=1 LCOSC_TRACE=1 "$svc" --kind tolerance --samples 48 --shards "$shards" \
    --checkpoint-dir "$smoke_dir/obs$shards" \
    --report "$smoke_dir/obs${shards}_report.txt" --quiet >/dev/null
done
cmp "$smoke_dir/obs2/telemetry/metrics.json" "$smoke_dir/obs3/telemetry/metrics.json"
../scripts/validate_trace.py "$smoke_dir/obs2/telemetry/trace.json" \
  --forensics "$smoke_dir/obs2/telemetry/forensics.jsonl" \
  --metrics "$smoke_dir/obs2/telemetry/metrics.json"

# kill -9 a worker mid-run: the supervisor restarts the shard, the run
# still completes, and the forensics log names the signal.  (If the
# campaign outruns the kill on a fast host, the signal check is skipped
# but the forensics schema is still validated.)
"$svc" --kind tolerance --samples 96 --shards 2 --max-restarts 4 \
  --checkpoint-dir "$smoke_dir/obskill" \
  --report "$smoke_dir/obskill_report.txt" --quiet >/dev/null 2>&1 &
coord=$!
killed=0
for _ in $(seq 1 200); do
  worker=$(pgrep -f -- "--lcosc-spec $smoke_dir/obskill" | head -n1 || true)
  if [[ -n "${worker}" ]]; then
    if kill -9 "$worker" 2>/dev/null; then killed=1; fi
    break
  fi
  sleep 0.01
done
wait "$coord"
if [[ "$killed" == 1 ]]; then
  grep -q '"event": "crash"' "$smoke_dir/obskill/telemetry/forensics.jsonl"
  grep -q '"signal_name": "SIGKILL"' "$smoke_dir/obskill/telemetry/forensics.jsonl"
fi
../scripts/validate_trace.py --forensics "$smoke_dir/obskill/telemetry/forensics.jsonl"
# The read-only views work on the finished directory with no coordinator
# left: `top` reads the progress from spec.json and the checkpoint
# streams, `inspect` the forensics log.
top_frame=$("$svc" top --dir "$smoke_dir/obskill" --once)
grep -q '96/96' <<<"$top_frame"
"$svc" inspect --dir "$smoke_dir/obskill" >/dev/null
# Rerun the finished directory under 3 shards: every case is checkpointed,
# so no worker runs, and spec.json now names the 3-shard layout.  `top`
# counts a shard row's failures only from forensics rows of that layout;
# the 2-shard run's crash counts in the earlier-layout total.
"$svc" --kind tolerance --samples 96 --shards 3 \
  --checkpoint-dir "$smoke_dir/obskill" \
  --report "$smoke_dir/obskill3_report.txt" --quiet >/dev/null
cmp "$smoke_dir/obskill_report.txt" "$smoke_dir/obskill3_report.txt"
top_frame=$("$svc" top --dir "$smoke_dir/obskill" --once)
grep -q '96/96' <<<"$top_frame"
if [[ "$killed" == 1 ]]; then
  # Shard rows start with the index; CRASHES is the third field from the end.
  awk '$1 ~ /^[0-9]+$/ && $(NF - 2) != 0 { bad = 1 } END { exit bad }' <<<"$top_frame"
  grep -Eq '^earlier layouts +[1-9]' <<<"$top_frame"
fi
echo "fleet observability smoke: merged metrics byte-identical across shard counts;" \
  "top and inspect read the finished checkpoint dir, top by shard layout"
