#include "spice/transient_solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.h"
#include "common/logging.h"
#include "numeric/interpolate.h"
#include "numeric/lu.h"
#include "numeric/step_control.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"

namespace lcosc::spice {
namespace {

// Mirror one run's TransientStats into the process-wide registry.  The
// struct stays the per-run snapshot view (benches and tests read it from
// TransientResult); the registry aggregates across runs and campaign
// workers.  Flushing once per run keeps the per-step hot path free of
// registry traffic, and every flushed quantity is an order-independent
// sum, so campaign totals are identical for any worker count.
void flush_stats_to_registry(const TransientStats& stats, std::size_t steps,
                             std::size_t failed_steps) {
  if (!obs::metrics_enabled()) return;
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& runs = registry.counter("transient.runs");
  static obs::Counter& step_count = registry.counter("transient.steps");
  static obs::Counter& failed = registry.counter("transient.failed_steps");
  static obs::Counter& matrix_stamps = registry.counter("transient.matrix_stamps");
  static obs::Counter& rhs_stamps = registry.counter("transient.rhs_stamps");
  static obs::Counter& factorizations = registry.counter("transient.factorizations");
  static obs::Counter& rhs_solves = registry.counter("transient.rhs_solves");
  static obs::Counter& newton_iterations = registry.counter("transient.newton_iterations");
  static obs::Counter& retried_steps = registry.counter("transient.retried_steps");
  static obs::Counter& halvings = registry.counter("transient.halvings");
  static obs::Counter& accepted = registry.counter("transient.adaptive.accepted_steps");
  static obs::Counter& rejected = registry.counter("transient.adaptive.rejected_steps");
  static obs::Counter& cache_hits = registry.counter("transient.base_cache.hits");
  static obs::Counter& cache_misses = registry.counter("transient.base_cache.misses");
  static obs::Counter& cache_evictions = registry.counter("transient.base_cache.evictions");
  // Converged-step Newton iteration histogram: bucket i of the stats
  // array holds steps that converged in i+1 iterations.
  static obs::Histogram& newton_hist = registry.histogram(
      "transient.newton_iterations_per_step", {1, 2, 3, 4, 5, 6, 7});
  // Accepted adaptive step sizes in octaves relative to the output dt:
  // bucket value k covers steps in [dt * 2^k, dt * 2^(k+1)).
  static obs::Histogram& dt_hist = registry.histogram(
      "transient.adaptive.dt_octaves",
      {-6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8});
  // Wall time is run-to-run noise, not a deterministic quantity: gauges.
  static obs::Gauge& stamp_seconds = registry.gauge("transient.stamp_seconds");
  static obs::Gauge& factor_seconds = registry.gauge("transient.factor_seconds");
  static obs::Gauge& solve_seconds = registry.gauge("transient.solve_seconds");

  runs.add(1);
  step_count.add(steps);
  failed.add(failed_steps);
  matrix_stamps.add(stats.matrix_stamps);
  rhs_stamps.add(stats.rhs_stamps);
  factorizations.add(stats.factorizations);
  rhs_solves.add(stats.rhs_solves);
  newton_iterations.add(stats.newton_iterations);
  retried_steps.add(stats.retried_steps);
  halvings.add(stats.halvings);
  accepted.add(stats.accepted_steps);
  rejected.add(stats.rejected_steps);
  cache_hits.add(stats.base_cache_hits);
  cache_misses.add(stats.base_cache_misses);
  cache_evictions.add(stats.base_cache_evictions);
  for (std::size_t i = 0; i < stats.newton_histogram.size(); ++i) {
    newton_hist.record_many(static_cast<double>(i + 1), stats.newton_histogram[i]);
  }
  for (std::size_t i = 0; i < stats.dt_histogram.size(); ++i) {
    const double octave =
        static_cast<double>(i) - static_cast<double>(kDtHistogramZeroBucket);
    dt_hist.record_many(octave, stats.dt_histogram[i]);
  }
  stamp_seconds.add(stats.stamp_seconds);
  factor_seconds.add(stats.factor_seconds);
  solve_seconds.add(stats.solve_seconds);
}

}  // namespace

TransientStats& TransientStats::operator+=(const TransientStats& other) {
  matrix_stamps += other.matrix_stamps;
  rhs_stamps += other.rhs_stamps;
  factorizations += other.factorizations;
  rhs_solves += other.rhs_solves;
  newton_iterations += other.newton_iterations;
  retried_steps += other.retried_steps;
  halvings += other.halvings;
  accepted_steps += other.accepted_steps;
  rejected_steps += other.rejected_steps;
  base_cache_hits += other.base_cache_hits;
  base_cache_misses += other.base_cache_misses;
  base_cache_evictions += other.base_cache_evictions;
  for (std::size_t i = 0; i < newton_histogram.size(); ++i) {
    newton_histogram[i] += other.newton_histogram[i];
  }
  for (std::size_t i = 0; i < dt_histogram.size(); ++i) {
    dt_histogram[i] += other.dt_histogram[i];
  }
  stamp_seconds += other.stamp_seconds;
  factor_seconds += other.factor_seconds;
  solve_seconds += other.solve_seconds;
  return *this;
}

const Trace& TransientResult::trace(const std::string& name) const {
  for (const auto& t : traces) {
    if (t.name() == name) return t;
  }
  throw ConfigError("no such transient probe: " + name);
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Per-run workspace: the element partition, the dt-keyed cache of linear
// base systems, the Newton work buffers, and the reusable LU factors.
// Everything lives for one run_transient call, so element parameter
// changes between runs can never be observed through a stale cache.
class TransientWorkspace {
 public:
  TransientWorkspace(Circuit& circuit, const TransientOptions& options)
      : options_(options),
        n_(circuit.unknown_count()),
        voltage_count_(circuit.node_count() - 1),
        cache_capacity_(std::max<std::size_t>(options.base_cache_capacity, 1)) {
    for (const auto& e : circuit.elements()) {
      switch (e->transient_class()) {
        case TransientClass::TimeInvariantLinear:
          invariant_.push_back(e.get());
          break;
        case TransientClass::TimeVaryingLinear:
          varying_.push_back(e.get());
          break;
        case TransientClass::Nonlinear:
          nonlinear_.push_back(e.get());
          break;
      }
    }
    // Entries hold Matrix/LU storage; reserve so BaseEntry pointers stay
    // stable while the cache grows.
    cache_.reserve(cache_capacity_);
    b_step_.assign(n_, 0.0);
    if (!nonlinear_.empty()) {
      a_work_.resize(n_, n_);
      b_work_.assign(n_, 0.0);
    }
  }

  [[nodiscard]] bool linear() const { return nonlinear_.empty(); }

  // One transient step at ctx.dt / ctx.time: Newton iteration for
  // nonlinear circuits, a single cached-factor solve for linear ones.
  // x holds the previous accepted state on entry and the new iterate on
  // return (converged or not).
  bool solve_step(StampContext ctx, Vector& x, TransientStats& stats) {
    ctx.x = &x;
    ensure_base(ctx, stats);
    assemble_step_rhs(ctx, stats);

    if (linear()) {
      ++stats.newton_iterations;
      if (!current_->factor_valid) {
        const auto t0 = Clock::now();
        const bool ok = current_->lu.factor(current_->a);
        stats.factor_seconds += seconds_since(t0);
        ++stats.factorizations;
        if (!ok) return false;
        current_->factor_valid = true;
      }
      const auto t0 = Clock::now();
      const bool solved = current_->lu.try_solve(b_step_, x_new_);
      stats.solve_seconds += seconds_since(t0);
      ++stats.rhs_solves;
      if (!solved) return false;
      // Linear circuits converge in one pass; the update keeps the same
      // voltage-step clamp as the Newton path so both paths share one
      // update rule.
      if (!apply_update(x, nullptr)) return false;
      ++stats.newton_histogram[0];
      return true;
    }

    for (int iter = 0; iter < options_.max_iterations; ++iter) {
      ++stats.newton_iterations;
      if (!options_.reuse_lu && iter > 0) {
        // Reference path: rebuild the base from scratch every iteration,
        // exactly as an unpartitioned solver would.
        ensure_base(ctx, stats);
        assemble_step_rhs(ctx, stats);
      }
      auto t0 = Clock::now();
      a_work_ = current_->a;
      b_work_ = b_step_;
      Stamper overlay(a_work_, b_work_);
      for (const Element* e : nonlinear_) e->stamp(overlay, ctx);
      stats.stamp_seconds += seconds_since(t0);

      t0 = Clock::now();
      const bool factored = lu_work_.factor(a_work_);
      stats.factor_seconds += seconds_since(t0);
      ++stats.factorizations;
      if (!factored) return false;

      t0 = Clock::now();
      const bool solved = lu_work_.try_solve(b_work_, x_new_);
      stats.solve_seconds += seconds_since(t0);
      ++stats.rhs_solves;
      if (!solved) return false;

      bool converged = true;
      if (!apply_update(x, &converged)) return false;
      if (converged) {
        const std::size_t bucket =
            std::min(static_cast<std::size_t>(iter), kNewtonHistogramBuckets - 1);
        ++stats.newton_histogram[bucket];
        return true;
      }
    }
    return false;
  }

 private:
  // One cached linear base system: the matrix block (+ gmin diagonal),
  // the time-invariant rhs, and -- for linear circuits -- the kept LU
  // factor, all valid for exactly one step size.
  struct BaseEntry {
    double dt = 0.0;
    Matrix a;
    Vector b;
    LuDecomposition lu;
    bool factor_valid = false;
    std::uint64_t last_use = 0;
  };

  // Point current_ at a base for ctx.dt: an LRU-cached entry when reuse
  // is on (stamping only on a miss), the re-stamped scratch entry on
  // every call when reuse is off.
  void ensure_base(const StampContext& ctx, TransientStats& stats) {
    if (options_.reuse_lu) {
      for (auto& entry : cache_) {
        if (entry.dt == ctx.dt) {
          entry.last_use = ++use_tick_;
          if (&entry != current_) current_ = &entry;
          ++stats.base_cache_hits;
          return;
        }
      }
      ++stats.base_cache_misses;
      current_ = acquire_entry(stats);
    } else {
      current_ = &scratch_;
    }
    stamp_base(*current_, ctx, stats);
  }

  // Free or least-recently-used cache slot.
  BaseEntry* acquire_entry(TransientStats& stats) {
    if (cache_.size() < cache_capacity_) {
      return &cache_.emplace_back();
    }
    BaseEntry* lru = &cache_.front();
    for (auto& entry : cache_) {
      if (entry.last_use < lru->last_use) lru = &entry;
    }
    ++stats.base_cache_evictions;
    return lru;
  }

  // Rebuild `entry` for ctx.dt: linear matrix block + gmin diagonal +
  // time-invariant rhs.
  void stamp_base(BaseEntry& entry, const StampContext& ctx, TransientStats& stats) {
    const auto t0 = Clock::now();
    if (entry.a.rows() != n_) entry.a.resize(n_, n_);
    entry.a.set_zero();
    entry.b.assign(n_, 0.0);
    Stamper full(entry.a, entry.b);
    for (const Element* e : invariant_) e->stamp(full, ctx);
    Stamper matrix_pass = Stamper::matrix_only(entry.a);
    for (const Element* e : varying_) e->stamp(matrix_pass, ctx);
    for (std::size_t i = 0; i < voltage_count_; ++i) entry.a(i, i) += options_.gmin;
    entry.dt = ctx.dt;
    entry.factor_valid = false;
    entry.last_use = ++use_tick_;
    ++stats.matrix_stamps;
    stats.stamp_seconds += seconds_since(t0);
  }

  // Per-step rhs: invariant base plus the time-varying linear stamps
  // (companion histories, SIN/PULSE source levels).
  void assemble_step_rhs(const StampContext& ctx, TransientStats& stats) {
    const auto t0 = Clock::now();
    b_step_ = current_->b;
    Stamper rhs_pass = Stamper::rhs_only(b_step_);
    for (const Element* e : varying_) e->stamp(rhs_pass, ctx);
    ++stats.rhs_stamps;
    stats.stamp_seconds += seconds_since(t0);
  }

  // Damped update from x_new_ into x.  The convergence test uses the
  // *unclamped* Newton delta: a voltage_step_limit at or below the
  // tolerance window must not fake convergence on a still-moving iterate.
  // Returns false on a non-finite delta.  `converged` may be null when the
  // caller does not need the test (linear one-pass path).
  bool apply_update(Vector& x, bool* converged) {
    for (std::size_t i = 0; i < n_; ++i) {
      const double delta = x_new_[i] - x[i];
      if (!std::isfinite(delta)) return false;
      const bool is_voltage = i < voltage_count_;
      double applied = delta;
      if (is_voltage && options_.voltage_step_limit > 0.0) {
        applied = std::clamp(delta, -options_.voltage_step_limit, options_.voltage_step_limit);
      }
      if (converged != nullptr) {
        const double abstol = is_voltage ? options_.voltage_abstol : options_.current_abstol;
        const double scale = std::max(std::abs(x[i]), std::abs(x[i] + delta));
        if (std::abs(delta) > abstol + options_.reltol * scale) *converged = false;
      }
      x[i] += applied;
    }
    return true;
  }

  const TransientOptions& options_;
  std::size_t n_;
  std::size_t voltage_count_;
  std::size_t cache_capacity_;

  std::vector<const Element*> invariant_;
  std::vector<const Element*> varying_;
  std::vector<const Element*> nonlinear_;

  std::vector<BaseEntry> cache_;  // dt-keyed LRU (reuse_lu = true)
  BaseEntry scratch_;             // re-stamped every call (reuse_lu = false)
  BaseEntry* current_ = nullptr;  // base system for the step in flight
  std::uint64_t use_tick_ = 0;

  Vector b_step_;   // per-step rhs (base + time-varying linear)
  Matrix a_work_;   // per-iteration system with the nonlinear overlay
  Vector b_work_;
  Vector x_new_;
  LuDecomposition lu_work_;  // factor workspace for the nonlinear overlay
};

// Everything the two stepping loops share: the circuit-facing state set
// up by run_transient before the loop choice.
struct RunSetup {
  Circuit* circuit = nullptr;
  const TransientOptions* options = nullptr;
  std::vector<NodeId> probes;
  Vector x;  // initial state (DC operating point or zeros)
};

// --- fixed-step loop (the historical solver; bit-identical contract) --------

// Fixed-step loop: construction performs everything the historical loop
// did before its first iteration, and each advance() call executes
// exactly one iteration of its body; run_fixed drains the stepper to
// completion.  The operation sequence is byte-for-byte the old loop, so
// traces are bit-identical.
class FixedStepper {
 public:
  FixedStepper(RunSetup& setup, TransientWorkspace& ws, TransientResult& result)
      : circuit_(*setup.circuit),
        options_(*setup.options),
        probes_(setup.probes),
        ws_(ws),
        result_(result),
        x_(std::move(setup.x)),
        x_prev_(x_),
        dt_(options_.dt),
        // Guard against ulp-level residue masquerading as one more step.
        time_eps_(dt_ * 1e-9) {
    // The initial state is a genuine sample of the run: record it at
    // exactly t = 0.  Every accepted step advances time by at least
    // dt / 2^max_step_halvings, so the strictly-increasing trace
    // invariant holds without the historical negative-epsilon hack.
    record(0.0, x_);
    ctx_.dt = options_.dt;
    ctx_.integration = options_.integration;
    ctx_.gmin = options_.gmin;
  }

  [[nodiscard]] bool done() const {
    const double t =
        reduced_time_ + static_cast<double>(nominal_steps_) * dt_;
    return options_.t_stop - t <= time_eps_;
  }

  // One accepted (or stale-accepted) time step, including the dt-halving
  // retries.  No-op once done().
  void advance() {
    const double t = reduced_time_ + static_cast<double>(nominal_steps_) * dt_;
    const double remaining = options_.t_stop - t;
    if (remaining <= time_eps_) return;
    LCOSC_SPAN("transient.step");

    // On the very first step (when not starting from a DC solution) the
    // reactive elements read their explicit initial conditions instead of
    // the all-zero state vector.
    ctx_.x_prev = (first_step_ && !options_.start_from_dc) ? nullptr : &x_prev_;

    // Newton retry with halved dt: a failed step is re-solved from the
    // same accepted state with a smaller step (bounded), and the run only
    // accepts the stale iterate once the halvings are exhausted.  The
    // accepted (possibly reduced) step advances time, so subsequent steps
    // return to the nominal dt.
    const double h_full = std::min(dt_, remaining);
    const bool full_size = h_full >= dt_;
    double h = h_full;
    int halvings = 0;
    bool step_ok = false;
    Vector x_next = x_;  // predictor: previous solution
    double t_next = 0.0;
    while (true) {
      ctx_.dt = h;
      t_next = (full_size && halvings == 0)
                   ? reduced_time_ + static_cast<double>(nominal_steps_ + 1) * dt_
                   : t + h;
      ctx_.time = t_next;
      x_next = x_;
      if (ws_.solve_step(ctx_, x_next, result_.stats)) {
        step_ok = true;
        break;
      }
      if (halvings >= options_.max_step_halvings) break;
      ++halvings;
      ++result_.stats.halvings;
      if (obs::events_enabled()) {
        obs::Event("newton.halving").num("t", ctx_.time).num("dt", h).integer("halvings", halvings);
      }
      h *= 0.5;
    }
    if (halvings > 0) ++result_.stats.retried_steps;
    if (!step_ok) {
      result_.converged = false;
      ++result_.failed_steps;
      if (obs::events_enabled()) {
        obs::Event("newton.step_failed").num("t", ctx_.time).integer("halvings", halvings);
      }
      LCOSC_LOG_WARN << "transient step at t=" << ctx_.time << " failed to converge after "
                     << halvings << " dt halvings";
    }
    x_prev_ = x_next;
    x_ = x_next;
    if (full_size && halvings == 0) {
      ++nominal_steps_;
    } else {
      reduced_time_ += h;
    }
    ++result_.steps;
    first_step_ = false;
    for (const auto& element : circuit_.elements()) element->transient_commit(x_, ctx_);
    record(t_next, x_);
  }

 private:
  void record(double t, const Vector& state) {
    for (std::size_t p = 0; p < probes_.size(); ++p) {
      result_.traces[p].append(t, Circuit::voltage(state, probes_[p]));
    }
  }

  Circuit& circuit_;
  const TransientOptions& options_;
  const std::vector<NodeId>& probes_;
  TransientWorkspace& ws_;
  TransientResult& result_;

  StampContext ctx_;
  Vector x_;
  Vector x_prev_;
  const double dt_;
  const double time_eps_;
  // Step-indexed time: full-size steps advance an integer counter and
  // reduced (halved or final partial) steps accumulate separately, so a
  // long run cannot drift against t_stop through repeated t += h rounding
  // (same fix as the EnvelopeSimulator step loop).
  std::int64_t nominal_steps_ = 0;
  double reduced_time_ = 0.0;
  bool first_step_ = true;
};

void run_fixed(RunSetup& setup, TransientWorkspace& ws, TransientResult& result) {
  FixedStepper stepper(setup, ws, result);
  while (!stepper.done()) stepper.advance();
}

// --- adaptive LTE-controlled loop -------------------------------------------

void run_adaptive(RunSetup& setup, TransientWorkspace& ws, TransientResult& result) {
  Circuit& circuit = *setup.circuit;
  const TransientOptions& options = *setup.options;
  TransientStats& stats = result.stats;
  Vector x = std::move(setup.x);
  const std::size_t n = x.size();
  const std::size_t voltage_count = circuit.node_count() - 1;

  const double dt_out = options.dt;
  const double dt_min = options.dt_min > 0.0 ? options.dt_min : dt_out / 4096.0;
  const double dt_max_raw = options.dt_max > 0.0 ? options.dt_max : 64.0 * dt_out;
  const StepGrid grid(options.dt_steps_per_octave);
  const double dt_max = grid.quantize(std::max(dt_max_raw, dt_min));
  LCOSC_REQUIRE(dt_min <= dt_max, "adaptive dt_min must not exceed dt_max");

  const int order = options.integration == Integration::Trapezoidal ? 2 : 1;
  // Step-doubling Richardson: LTE(two half steps) = (x_half - x_full) /
  // (2^order - 1).
  const double lte_divisor = order == 2 ? 3.0 : 1.0;
  StepControlOptions sc;
  sc.order = order;
  PiStepController controller(sc);

  // Internal accepted states, resampled onto the fixed grid at the end.
  std::vector<SampledCurve> dense(setup.probes.size());
  for (std::size_t p = 0; p < dense.size(); ++p) {
    dense[p].append(0.0, Circuit::voltage(x, setup.probes[p]));
  }

  StampContext ctx;
  ctx.integration = options.integration;
  ctx.gmin = options.gmin;

  auto clamp_to_grid = [&](double h) {
    h = std::clamp(h, dt_min, dt_max);
    const double q = grid.quantize(h);
    // Quantizing rounds down; the floor itself need not be a grid point.
    return q >= dt_min ? q : dt_min;
  };

  Vector x_full(n), x_mid(n), x_half(n);
  const double time_eps = dt_out * 1e-9;
  double t = 0.0;
  double h = clamp_to_grid(dt_out);
  bool first_step = true;
  const double inf = std::numeric_limits<double>::infinity();

  while (options.t_stop - t > time_eps) {
    LCOSC_SPAN("transient.step");
    // The final step is truncated to land on t_stop (off-grid: one cache
    // key at worst, on the last step of the run).
    const double h_try = std::min(h, options.t_stop - t);
    const Vector* prev = (first_step && !options.start_from_dc) ? nullptr : &x;

    for (const auto& e : circuit.elements()) e->transient_push();

    // Trial: one full step of h_try...
    ctx.dt = h_try;
    ctx.time = t + h_try;
    ctx.x_prev = prev;
    x_full = x;
    bool ok = ws.solve_step(ctx, x_full, stats);
    // ...and two half steps from the same committed state.
    if (ok) {
      const double hh = 0.5 * h_try;
      ctx.dt = hh;
      ctx.time = t + hh;
      ctx.x_prev = prev;
      x_mid = x;
      ok = ws.solve_step(ctx, x_mid, stats);
      if (ok) {
        for (const auto& e : circuit.elements()) e->transient_commit(x_mid, ctx);
        ctx.dt = hh;
        ctx.time = t + h_try;
        ctx.x_prev = &x_mid;
        x_half = x_mid;
        ok = ws.solve_step(ctx, x_half, stats);
      }
    }

    double err = inf;
    if (ok) {
      err = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double lte = (x_half[i] - x_full[i]) / lte_divisor;
        const double abstol =
            i < voltage_count ? options.lte_voltage_abstol : options.lte_current_abstol;
        const double scale = std::max(std::abs(x[i]), std::abs(x_half[i]));
        err = std::max(err, std::abs(lte) / (abstol + options.lte_reltol * scale));
      }
      if (!std::isfinite(err)) err = inf;
    }

    const bool at_floor = h_try <= dt_min * (1.0 + 1e-12);
    if ((!ok || err > 1.0) && !at_floor) {
      // Reject: restore the committed element history and shrink.
      for (const auto& e : circuit.elements()) e->transient_pop();
      ++stats.rejected_steps;
      if (obs::events_enabled()) {
        obs::Event("adaptive.reject").num("t", t).num("dt", h_try).num("err", ok ? err : -1.0);
      }
      h = clamp_to_grid(h_try * controller.propose_factor(err, false));
      continue;
    }

    if (!ok) {
      // Step floor and the solver still fails: accept the stale iterate,
      // exactly like the fixed path does when its halvings run out.
      for (const auto& e : circuit.elements()) e->transient_pop();
      ctx.dt = h_try;
      ctx.time = t + h_try;
      ctx.x_prev = prev;
      x_half = x;
      (void)ws.solve_step(ctx, x_half, stats);
      result.converged = false;
      ++result.failed_steps;
      if (obs::events_enabled()) {
        obs::Event("newton.step_failed").num("t", ctx.time).num("dt", h_try);
      }
      LCOSC_LOG_WARN << "adaptive transient step at t=" << ctx.time
                     << " failed to converge at the dt floor";
      x = x_half;
      for (const auto& e : circuit.elements()) e->transient_commit(x, ctx);
      controller.reset();
    } else {
      // Accept the half-step solution; the element history was already
      // advanced through the two committed half steps.
      x = x_half;
      ctx.dt = 0.5 * h_try;
      ctx.time = t + h_try;
      for (const auto& e : circuit.elements()) e->transient_commit(x, ctx);
    }

    t += h_try;
    ++result.steps;
    ++stats.accepted_steps;
    first_step = false;
    {
      const double octave = std::floor(std::log2(h_try / dt_out));
      const double shifted = octave + static_cast<double>(kDtHistogramZeroBucket);
      const std::size_t bucket = static_cast<std::size_t>(
          std::clamp(shifted, 0.0, static_cast<double>(kDtHistogramBuckets - 1)));
      ++stats.dt_histogram[bucket];
    }
    for (std::size_t p = 0; p < dense.size(); ++p) {
      dense[p].append(t, Circuit::voltage(x, setup.probes[p]));
    }
    h = clamp_to_grid(h_try * controller.propose_factor(err, true));
  }

  // Dense output: resample the internal solution onto the caller's fixed
  // grid, with the same sample times as the fixed-step path (0, dt,
  // 2 dt, ..., plus a reduced final sample landing on t_stop).
  for (std::size_t p = 0; p < dense.size(); ++p) {
    result.traces[p].append(0.0, dense[p](0.0));
  }
  std::int64_t k = 0;
  for (;;) {
    const double t_k = static_cast<double>(k) * dt_out;
    const double remaining = options.t_stop - t_k;
    if (remaining <= time_eps) break;
    const double t_next =
        remaining >= dt_out ? static_cast<double>(k + 1) * dt_out : options.t_stop;
    for (std::size_t p = 0; p < dense.size(); ++p) {
      result.traces[p].append(t_next, dense[p](t_next));
    }
    ++k;
  }
}

}  // namespace

TransientResult run_transient(Circuit& circuit, const TransientOptions& options,
                              const std::vector<std::string>& probe_nodes) {
  LCOSC_SPAN("transient.run");
  LCOSC_REQUIRE(options.dt > 0.0, "transient dt must be positive");
  LCOSC_REQUIRE(options.t_stop > 0.0, "transient t_stop must be positive");
  circuit.finalize();
  const std::size_t n = circuit.unknown_count();

  RunSetup setup;
  setup.circuit = &circuit;
  setup.options = &options;
  setup.probes.reserve(probe_nodes.size());
  for (const auto& name : probe_nodes) setup.probes.push_back(circuit.node(name));

  TransientResult result;
  result.traces.reserve(probe_nodes.size());
  for (const auto& name : probe_nodes) result.traces.emplace_back(name);

  setup.x.assign(n, 0.0);
  if (options.start_from_dc) {
    const DcSolution op = solve_dc(circuit);
    if (op.converged) setup.x = op.x;
  }

  // Initialize element transient history (trapezoidal state).
  for (const auto& element : circuit.elements()) {
    element->transient_begin(options.start_from_dc ? &setup.x : nullptr);
  }

  TransientWorkspace ws(circuit, options);
  if (options.adaptive) {
    run_adaptive(setup, ws, result);
  } else {
    run_fixed(setup, ws, result);
  }
  flush_stats_to_registry(result.stats, result.steps, result.failed_steps);
  return result;
}

}  // namespace lcosc::spice
