// Engine micro-benchmarks (google-benchmark): throughput of the numeric
// kernels and the simulation engines, so performance regressions in the
// substrates are visible.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/units.h"
#include "dac/current_mirror.h"
#include "numeric/lu.h"
#include "numeric/ode.h"
#include "service/spec.h"
#include "spice/circuit.h"
#include "spice/dc_solver.h"
#include "spice/transient_solver.h"
#include "system/envelope_simulator.h"
#include "system/oscillator_system.h"

using namespace lcosc;
using namespace lcosc::literals;

namespace {

void BM_LuSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += 4.0;
  }
  Vector b(n, 1.0);
  for (auto _ : state) {
    LuDecomposition lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_LuSolve)->Arg(8)->Arg(16)->Arg(32);

void BM_Rk4HarmonicOscillator(benchmark::State& state) {
  const OdeRhs rhs = [](double, const Vector& x, Vector& d) {
    d[0] = x[1];
    d[1] = -1e14 * x[0];
  };
  for (auto _ : state) {
    const OdeResult r =
        integrate_rk4(rhs, 0.0, 1e-5, {1.0, 0.0}, {.step = 4e-9});  // 2500 steps
    benchmark::DoNotOptimize(r.state[0]);
  }
  state.SetItemsProcessed(state.iterations() * 2500);
}
BENCHMARK(BM_Rk4HarmonicOscillator);

void BM_DcOperatingPointMosfetChain(benchmark::State& state) {
  using namespace lcosc::spice;
  Circuit c;
  c.voltage_source("Vdd", "vdd", "0", 5.0);
  c.voltage_source("Vin", "in", "0", 1.2);
  std::string prev = "in";
  for (int stage = 0; stage < 4; ++stage) {
    const std::string out = "o" + std::to_string(stage);
    c.resistor("R" + std::to_string(stage), "vdd", out, 20e3);
    c.mosfet("M" + std::to_string(stage), out, prev, "0", "0", nmos_035um(5.0));
    prev = out;
  }
  c.finalize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_dc(c).converged);
  }
}
BENCHMARK(BM_DcOperatingPointMosfetChain);

// Transient hot path with and without the cached-base / kept-LU reuse
// (state.range(0): 0 = uncached reference, 1 = reuse).  The two modes
// must produce bit-identical traces; the interesting number is the ratio.
void BM_TransientLinearRlc(benchmark::State& state) {
  using namespace lcosc::spice;
  TransientOptions options;
  options.dt = 1.0 / (4.0_MHz * 64.0);
  options.t_stop = 500.0 * options.dt;
  options.start_from_dc = false;
  options.reuse_lu = state.range(0) != 0;
  const tank::TankConfig tk = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  for (auto _ : state) {
    Circuit c;
    VoltageSource& vs = c.voltage_source("Vs", "in", "0", 0.0);
    vs.set_sine({.offset = 0.0, .amplitude = 1.0, .frequency = 4.0_MHz, .phase_deg = 0.0});
    c.resistor("Rs", "in", "a", 5.0);
    c.inductor("L", "a", "b", tk.inductance);
    c.resistor("Rl", "b", "0", tk.series_resistance);
    c.capacitor("C1", "a", "0", tk.capacitance1);
    c.capacitor("C2", "a", "0", tk.capacitance2);
    const TransientResult r = run_transient(c, options, {"a"});
    benchmark::DoNotOptimize(r.stats.rhs_solves);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_TransientLinearRlc)->Arg(0)->Arg(1);

void BM_TransientDiodeClamp(benchmark::State& state) {
  using namespace lcosc::spice;
  TransientOptions options;
  options.dt = 1.0 / (4.0_MHz * 64.0);
  options.t_stop = 500.0 * options.dt;
  options.start_from_dc = false;
  options.reuse_lu = state.range(0) != 0;
  const tank::TankConfig tk = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  for (auto _ : state) {
    Circuit c;
    VoltageSource& vs = c.voltage_source("Vs", "in", "0", 0.0);
    vs.set_sine({.offset = 0.0, .amplitude = 1.0, .frequency = 4.0_MHz, .phase_deg = 0.0});
    c.resistor("Rs", "in", "a", 5.0);
    c.inductor("L", "a", "b", tk.inductance);
    c.resistor("Rl", "b", "0", tk.series_resistance);
    c.capacitor("C1", "a", "0", tk.capacitance1);
    c.capacitor("C2", "a", "0", tk.capacitance2);
    c.diode("Dclamp", "a", "0");
    const TransientResult r = run_transient(c, options, {"a"});
    benchmark::DoNotOptimize(r.stats.newton_iterations);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_TransientDiodeClamp)->Arg(0)->Arg(1);

// Startup-shaped RC transient, fixed grid vs adaptive LTE stepping
// (state.range(0): 0 = fixed, 1 = adaptive).  The adaptive run resolves
// the charging edge and then rides the 64x step ceiling, so the ratio
// tracks the accepted-step reduction.
void BM_TransientStartupRc(benchmark::State& state) {
  using namespace lcosc::spice;
  TransientOptions options;
  options.dt = 1e-6;
  options.t_stop = 4000.0 * options.dt;
  options.start_from_dc = false;
  options.adaptive = state.range(0) != 0;
  for (auto _ : state) {
    Circuit c;
    c.voltage_source("Vs", "in", "0", 5.0);
    c.resistor("R", "in", "out", 1e3);
    c.capacitor("C", "out", "0", 1e-6);
    const TransientResult r = run_transient(c, options, {"out"});
    benchmark::DoNotOptimize(r.stats.rhs_solves);
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_TransientStartupRc)->Arg(0)->Arg(1);

void BM_MismatchedDacFullTransfer(benchmark::State& state) {
  const dac::CurrentLimitationDac mirror(kDacUnitCurrent, dac::MismatchConfig{}, 42);
  for (auto _ : state) {
    double acc = 0.0;
    for (int code = 0; code <= 127; ++code) acc += mirror.output_current(code);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_MismatchedDacFullTransfer);

// state.range(0): 0 = fixed dt grid, 1 = adaptive macro stepping.
void BM_EnvelopeSimMillisecond(benchmark::State& state) {
  system::EnvelopeSimConfig cfg;
  cfg.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.adaptive = state.range(0) != 0;
  for (auto _ : state) {
    system::EnvelopeSimulator sim(cfg);
    benchmark::DoNotOptimize(sim.run(1e-3).final_code);
  }
}
BENCHMARK(BM_EnvelopeSimMillisecond)->Arg(0)->Arg(1);

// One simulated millisecond of the Q=40 system.  per_step, the CPU time
// of one RK4 step with its loop work (detectors, safety, ticks), is the
// per-layer figure of the cycle-accurate engine.
void BM_CycleAccurateSimMillisecond(benchmark::State& state) {
  system::OscillatorSystemConfig cfg;
  cfg.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.waveform_decimation = 0;
  for (auto _ : state) {
    system::OscillatorSystem sys(cfg);
    benchmark::DoNotOptimize(sys.run(1e-3).final_code);
  }
  const double dt = 1.0 / (tank::RlcTank(cfg.tank).resonance_frequency() * cfg.steps_per_period);
  state.counters["per_step"] =
      benchmark::Counter(std::ceil(1e-3 / dt), benchmark::Counter::kIsIterationInvariantRate |
                                                   benchmark::Counter::kInvert);
}
BENCHMARK(BM_CycleAccurateSimMillisecond);

// The same millisecond with an open coil, from a RunSession copied past
// its safe-state entry.  The pins sit on a bitwise fixed point there, so
// after each tick's probe the steps are replayed, not integrated
// (DESIGN.md §20); per_step is a replayed step with its loop work.
void BM_CycleAccurateReplayedMillisecond(benchmark::State& state) {
  system::OscillatorSystemConfig cfg;
  cfg.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.waveform_decimation = 0;
  system::OscillatorSystem sys(cfg);
  sys.schedule_fault(tank::TankFault::OpenCoil, 1e-3);
  constexpr double kSafeStateEntered = 4e-3;
  system::RunSession safe(sys, kSafeStateEntered + 1e-3);
  safe.advance_until(kSafeStateEntered);
  for (auto _ : state) {
    system::RunSession session(safe);
    const system::SimulationResult result = session.finish();
    if (result.final_code != safe.code() ||
        result.final_mode != regulation::RegulationMode::SafeState) {
      state.SkipWithError("the open coil did not hold the safe state");
      break;
    }
  }
  const double dt = 1.0 / (tank::RlcTank(cfg.tank).resonance_frequency() * cfg.steps_per_period);
  state.counters["per_step"] =
      benchmark::Counter(std::ceil(1e-3 / dt), benchmark::Counter::kIsIterationInvariantRate |
                                                   benchmark::Counter::kInvert);
}
BENCHMARK(BM_CycleAccurateReplayedMillisecond);

// The spec.json round trip a campaign-service coordinator and each of
// its shard workers make before the first case: an internal-FMEA spec at
// the campaign benchmark's injection instant 6 + (k - 16)/128 ms, k =
// state.range(0).
void BM_CampaignSpecRoundTrip(benchmark::State& state) {
  service::CampaignSpec spec;
  spec.kind = service::CampaignKind::InternalFmea;
  spec.settle_time = (6.0 + static_cast<double>(state.range(0) - 16) / 128.0) * 1e-3;
  spec.observe_time = 16e-3 - spec.settle_time;
  spec.shards = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::parse_campaign_spec(service::to_json(spec)).observe_time);
  }
}
BENCHMARK(BM_CampaignSpecRoundTrip)->Arg(11);

}  // namespace

BENCHMARK_MAIN();
