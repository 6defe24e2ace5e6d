// Lockstep batched envelope engine for Monte-Carlo campaigns.
//
// Advances N sampled variants ("lanes") of the regulated oscillator
// through ONE fixed-dt envelope time loop instead of N independent
// EnvelopeSimulator runs.  Per-lane hot state (amplitude, rectified-mean
// input, detector filter) lives in structure-of-arrays channels; the
// per-lane effective Gm port stage -- which the serial path rebuilds from
// the DAC decode on every integrator substep -- is cached per lane and
// refreshed only when that lane's code changes, and a step that starts
// from the bitwise amplitude of the lane's previous step on the same
// stage (a lane at its balance point) reuses that step.  All arithmetic
// flows through the same compiled kernels as the serial path
// (advance_envelope_guarded, GmStage::fundamental_current, the LowPass
// update expression), so every lane's numbers are bit-identical to an
// EnvelopeSimulator run of the same config (DESIGN.md §12).
//
// Lanes must share the time grid (dt, tick_period, nvm_delay) and the
// detector filter tau; everything else (tank, driver, DAC mismatch,
// detector thresholds, initial amplitude) varies per lane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dac/current_mirror.h"
#include "system/envelope_simulator.h"

namespace lcosc::system {

// One Monte-Carlo variant for the lockstep engine.
struct BatchedEnvelopeLane {
  EnvelopeSimConfig config{};
  // Optional mismatched current-limitation DAC, applied exactly like the
  // serial path's driver().use_mismatched_dac().
  std::shared_ptr<const dac::CurrentLimitationDac> mismatch_dac;
};

// Per-lane result carrying exactly what campaign code consumes from
// EnvelopeRunResult (settled tail mean, final code, last-tick supply);
// full traces are not materialized, which is what lets the engine scale
// to 10k-variant sweeps.
struct BatchedLaneResult {
  // Lane setup threw (invalid per-lane config): the caller re-runs the
  // case serially to reproduce the serial error handling byte for byte.
  bool setup_failed = false;
  // Amplitude went non-finite mid-run -- where the serial path throws
  // ConvergenceError; the caller's serial fallback reproduces the
  // retry-with-halved-dt semantics.
  bool diverged = false;
  int final_code = 0;
  // Tail mean over the trailing 20% of the run, bit-identical to
  // EnvelopeRunResult::settled_amplitude().
  double settled_amplitude = 0.0;
  // Supply current at the last regulation tick (0 if the run ticks never
  // fired), matching `ticks.back().supply_current`.
  double supply_current = 0.0;
  std::uint64_t substeps = 0;
};

[[nodiscard]] std::vector<BatchedLaneResult> run_batched_envelope(
    const std::vector<BatchedEnvelopeLane>& lanes, double duration);

// Streaming front-end for sweeps too large to materialize: lanes are
// pulled from a factory and pushed to a sink in bounded chunk_lanes-sized
// windows, so a 10,000-variant sweep holds O(chunk_lanes) lane state --
// one window's configs, SoA channels, and online tail/verdict
// accumulators -- never O(total).  Within a window the arithmetic is the
// run_batched_envelope lockstep loop, so every lane's numbers are
// bit-identical to a one-shot batch and to the serial reference
// (DESIGN.md §16).
class BatchedEnvelopeEngine {
 public:
  // Builds lane `index` (called once, just before its window runs).
  using LaneFactory = std::function<BatchedEnvelopeLane(std::size_t index)>;
  // Consumes lane `index`'s result (called once, right after its window
  // finishes, in ascending index order).
  using ResultSink = std::function<void(std::size_t index, const BatchedLaneResult&)>;

  explicit BatchedEnvelopeEngine(std::size_t chunk_lanes);

  [[nodiscard]] std::size_t chunk_lanes() const { return chunk_lanes_; }

  // Stream `total` lanes through the lockstep engine for `duration`
  // seconds of simulated time.  Windows are cut at multiples of
  // chunk_lanes in lane index; the grouping changes peak memory and wall
  // time, never a result bit (lanes are arithmetically independent).
  void run(std::size_t total, double duration, const LaneFactory& factory,
           const ResultSink& sink) const;

 private:
  std::size_t chunk_lanes_;
};

}  // namespace lcosc::system
