// Fixed-step transient analysis with backward-Euler companion models and a
// per-step Newton loop for nonlinear elements.
//
// Reactive elements read their previous state from the last accepted
// solution vector, so the method is pure backward Euler: L-stable, first
// order.  The spice transient exists to cross-check the behavioral
// macro-models on small support circuits, not to run long RF transients
// (the ODE engines in src/numeric do that at a fraction of the cost).
//
// Hot-path structure (see DESIGN.md §9): elements are partitioned at
// setup into time-invariant-linear / time-varying-linear / nonlinear
// sets.  The linear matrix block (plus gmin diagonal) is stamped once per
// (dt, integration) pair into a cached base matrix; each step only the
// right-hand side is rebuilt, and nonlinear elements re-stamp their
// partials on top of a copy of the base.  Linear circuits keep the LU
// factorization of the base across steps and only re-solve the rhs.  The
// uncached reference path (reuse_lu = false) performs the identical
// floating-point operations with the base rebuilt every iteration, so
// traces are bit-identical between the two modes.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "spice/dc_solver.h"
#include "waveform/trace.h"

namespace lcosc::spice {

struct TransientOptions {
  double t_stop = 1e-3;
  double dt = 1e-6;
  // Companion-model integration: backward Euler (L-stable, damps ringing)
  // or trapezoidal (2nd order, energy-preserving on LC tanks).
  Integration integration = Integration::BackwardEuler;
  // Newton controls per time step.
  int max_iterations = 60;
  double voltage_abstol = 1e-6;
  double current_abstol = 1e-9;
  double reltol = 1e-4;
  double voltage_step_limit = 1.0;
  double gmin = 1e-12;
  // On per-step Newton non-convergence, retry the step with a halved dt
  // up to this many times before accepting the stale iterate.
  int max_step_halvings = 3;
  // Start from a DC operating point (true) or from all-zero state with
  // element initial conditions (false).
  bool start_from_dc = true;
  // Reuse the cached linear base matrix and (for linear circuits) the LU
  // factorization across steps.  false re-stamps and re-factors from
  // scratch every Newton iteration -- the A/B reference path, which must
  // produce bit-identical traces.
  bool reuse_lu = true;

  // --- adaptive LTE-controlled stepping ------------------------------------
  //
  // Default OFF: with adaptive = false the solver below is bit-identical
  // to the historical fixed-step implementation (enforced by the golden
  // trace in tests/test_spice_adaptive.cpp and the tier1.sh smoke step).
  //
  // When ON, the solver chooses its own internal step: the local
  // truncation error is estimated by step doubling (one step of h versus
  // two steps of h/2 from the same state, Richardson-scaled to the method
  // order), a PI controller accepts/rejects and proposes the next h, the
  // proposal is quantized onto a power-of-two geometric grid, and the
  // cached base matrix / LU factor is kept per quantized dt in a small
  // LRU so step-size changes do not re-stamp from scratch.  Output traces
  // are still emitted on the fixed `dt` grid (dense-output resampling),
  // so callers see the same trace shape either way.
  bool adaptive = false;
  // LTE acceptance per unknown: |lte| <= abstol(kind) + lte_reltol * |x|.
  double lte_reltol = 1e-3;
  double lte_voltage_abstol = 1e-6;
  double lte_current_abstol = 1e-9;
  // Internal step bounds; 0 = derive from dt (dt / 4096 and 64 * dt).
  double dt_min = 0.0;
  double dt_max = 0.0;
  // Resolution of the geometric dt grid (points per octave).  Coarser
  // grids mean fewer distinct step sizes and better base/LU cache reuse.
  int dt_steps_per_octave = 4;
  // Capacity of the dt-keyed base-matrix/LU LRU cache (min 1).
  std::size_t base_cache_capacity = 16;
};

// Newton-iteration histogram bucket count: bucket i counts steps that
// converged in i+1 iterations; the last bucket also absorbs every step
// that needed kNewtonHistogramBuckets or more.
inline constexpr std::size_t kNewtonHistogramBuckets = 8;

// Adaptive dt histogram: bucket i counts accepted steps whose size fell
// in octave i - kDtHistogramZeroBucket relative to the output dt, i.e.
// bucket 6 is [dt, 2 dt), bucket 5 is [dt/2, dt), and the end buckets
// absorb everything beyond the covered range.
inline constexpr std::size_t kDtHistogramBuckets = 16;
inline constexpr std::size_t kDtHistogramZeroBucket = 6;

// Solver observability: what the transient hot path actually did.
struct TransientStats {
  // Rebuilds of the cached linear base (matrix + invariant rhs).  One per
  // distinct step size when reuse is on; one per Newton iteration when off.
  std::size_t matrix_stamps = 0;
  // Per-step rhs assembly passes (time-varying linear elements).
  std::size_t rhs_stamps = 0;
  // LU factorizations (one per step size for linear circuits with reuse).
  std::size_t factorizations = 0;
  // Forward/back substitutions against a kept factor.
  std::size_t rhs_solves = 0;
  // Total Newton iterations across all steps and retries.
  std::size_t newton_iterations = 0;
  // Steps that needed at least one dt halving, and total halvings.
  std::size_t retried_steps = 0;
  std::size_t halvings = 0;
  // Adaptive stepping: accepted / LTE-rejected macro steps (0 when the
  // fixed-step path ran).
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  // dt-keyed base/LU cache traffic (reuse_lu = true only).
  std::size_t base_cache_hits = 0;
  std::size_t base_cache_misses = 0;
  std::size_t base_cache_evictions = 0;
  // Converged-step iteration histogram (see kNewtonHistogramBuckets).
  std::array<std::size_t, kNewtonHistogramBuckets> newton_histogram{};
  // Accepted-step size histogram in octaves relative to the output dt
  // (see kDtHistogramBuckets); populated by the adaptive path only.
  std::array<std::size_t, kDtHistogramBuckets> dt_histogram{};
  // Wall time per phase [s].
  double stamp_seconds = 0.0;
  double factor_seconds = 0.0;
  double solve_seconds = 0.0;

  TransientStats& operator+=(const TransientStats& other);
};

struct TransientResult {
  bool converged = true;       // false if any time step failed to converge
                               // even after the dt-halving retries
  std::size_t steps = 0;
  // Steps that exhausted the halving retries and accepted a stale iterate.
  std::size_t failed_steps = 0;
  std::vector<Trace> traces;   // one per requested probe, in request order
  TransientStats stats;        // solver counters for this run

  [[nodiscard]] const Trace& trace(const std::string& name) const;
};

// Run transient analysis recording the voltages of `probe_nodes`.
[[nodiscard]] TransientResult run_transient(Circuit& circuit, const TransientOptions& options,
                                            const std::vector<std::string>& probe_nodes);

}  // namespace lcosc::spice
