// The oscillator driver macro-model: two cross-coupled current-limited Gm
// stages (paper Fig. 1) whose current limit is set by the amplitude code
// through the current limitation DAC (Figs. 5-7, Table 1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>

#include "dac/current_mirror.h"
#include "dac/dac_variants.h"
#include "driver/gm_stage.h"
#include "faults/fault_bus.h"
#include "tank/rlc_tank.h"

namespace lcosc::driver {

struct DriverConfig {
  // Transconductance of one unit Gm output stage.  Table 1 activates
  // 1..9 units, so the equivalent transconductance spans ~1.1..10 mS,
  // matching the paper's "up to around 10 mS".
  double gm_per_stage = 1.1e-3;
  LimitShape shape = LimitShape::Hard;
  double unit_current = kDacUnitCurrent;  // 12.5 uA LSB (Fig. 13)
  // Quiescent (bias) supply current of the driver and support blocks.
  double quiescent_current = 150e-6;
  // Output compliance: pin deviation from Vref at which the output stage
  // runs out of headroom (mirror devices leave saturation near the rail),
  // and the width of the soft roll-off.  Vref sits at mid supply, so the
  // rail is ~2.5 V away; the mirrors need a couple hundred mV.
  double rail_headroom = 2.3;
  double compliance_width = 0.2;
};

// Currents injected by the driver into the two LC pins (voltages are
// relative to the Vref mid-supply operating point).
struct NodeCurrents {
  double into_lc1 = 0.0;
  double into_lc2 = 0.0;
};

class OscillatorDriver {
 public:
  explicit OscillatorDriver(DriverConfig config = {});

  // Use a mismatched current limitation DAC instead of the ideal PWL law.
  void use_mismatched_dac(std::shared_ptr<const dac::CurrentLimitationDac> mirror_dac);

  // Use an alternative control law (ablation studies).
  void use_control_law(std::shared_ptr<const dac::AmplitudeControlLaw> law);

  // Observe an internal-fault bus (nullptr detaches): stuck DAC control
  // lines and dead segments reshape the ideal-DAC current limit, stuck
  // OscE lines change the active Gm stage count, and a gm-collapse fault
  // scales the transconductance.
  void attach_fault_bus(const faults::FaultBus* bus);

  // Amplitude regulation code (0..127).
  void set_code(int code);
  [[nodiscard]] int code() const { return code_; }

  // Enable/disable the driver output stages (startup, safe state).
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    stage_cache_valid_ = false;
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Current limit selected by the present code [A].
  [[nodiscard]] double current_limit() const;

  // Equivalent transconductance of one driver at the present code
  // (unit gm times the number of active Gm stages from Table 1).
  [[nodiscard]] double equivalent_gm() const;

  // Cross-coupled static output: i(LC1) = f(-v2), i(LC2) = f(-v1).
  //
  // Hot path: the effective GmStage parameters (DAC decode, fault-bus
  // hooks) are cached and only recomputed when a setter runs or the
  // attached fault bus changes revision.  The cached parameters are the
  // exact values equivalent_gm()/current_limit() return, so results are
  // bit-identical to the uncached evaluation.  The system's RK4 kernel
  // looks the stage up once per step (active_stage) and evaluates the
  // same pin_currents law four times.
  [[nodiscard]] NodeCurrents output(double v1, double v2) const {
    if (!enabled_) return {};
    return pin_currents(stage(), config_, v1, v2);
  }

  // The stage output() evaluates, or nullptr while the driver is
  // disabled (output() is then zero).
  [[nodiscard]] const GmStage* active_stage() const { return enabled_ ? &stage() : nullptr; }

  // The pin-current law of output(): each inverting stage senses the
  // opposite pin (v are deviations from Vref), and its output complies
  // with the pin's headroom.  Forced inline, with its helpers: the
  // innermost call of the RK4 system loop, evaluated 4 times per step,
  // where a call per evaluation would put a store and reload on every
  // link of the step's dependency chain.
  [[nodiscard, gnu::always_inline]] static NodeCurrents pin_currents(const GmStage& st,
                                                                    const DriverConfig& config,
                                                                    double v1, double v2) {
    return {.into_lc1 = comply(config, st.output_current(-v2), v1),
            .into_lc2 = comply(config, st.output_current(-v1), v2)};
  }

  // Fundamental drive current delivered into the differential port for a
  // differential oscillation amplitude A (describing-function view; feeds
  // the envelope simulator).
  [[nodiscard]] double fundamental_port_current(double amplitude) const;

  // Steady-state amplitude prediction on a tank (Eq. 4): solves
  // I_fund(A) = A / Rp.  Returns nullopt if oscillation cannot sustain.
  [[nodiscard]] std::optional<double> predicted_amplitude(const tank::RlcTank& tank) const;

  // Estimated average supply current at differential amplitude A:
  // quiescent plus the average rectified stage output currents.
  [[nodiscard]] double supply_current(double amplitude) const;

  // The effective differential-port stage at the present code: half the
  // equivalent transconductance with the DAC current limit -- exactly the
  // stage fundamental_port_current() and supply_current() construct per
  // call.  The batched envelope engine caches this per lane (refreshing
  // on code changes), so the cached stage equals the serial per-call
  // construction bit for bit.
  [[nodiscard]] GmStage differential_port_stage() const;

  // The stage output() evaluates at the present code, fault-bus hooks
  // applied: gm = equivalent_gm(), current_limit = current_limit().  Every
  // output of the driver is a function of these values, so two
  // copies of one driver whose effective stages are bitwise equal behave
  // identically.
  [[nodiscard]] const GmStageConfig& effective_stage() const { return stage().config(); }

  [[nodiscard]] const DriverConfig& config() const { return config_; }

 private:
  // Output compliance: a stage pushing current outward loses headroom as
  // the pin approaches its rail (the mirror devices drop out of
  // saturation); pulling back towards Vref is unaffected.
  [[nodiscard, gnu::always_inline]] static double comply(const DriverConfig& config, double i,
                                                         double v) {
    const double w = config.compliance_width;
    // Fast path: a pin at least one transition width away from both
    // rails has both clamp arguments >= 1, so the factor is exactly 1.0
    // and i * 1.0 == i bit-for-bit -- skip the division.  (NaN inputs
    // fail both comparisons and fall through to the exact slow path.)
    if (v <= config.rail_headroom - w && v >= w - config.rail_headroom) [[likely]] return i;
    if (i > 0.0) {
      return i * std::clamp((config.rail_headroom - v) / w, 0.0, 1.0);
    }
    return i * std::clamp((v + config.rail_headroom) / w, 0.0, 1.0);
  }

  // Cached effective stage for output(); revalidated against the setters
  // and the fault-bus revision (see output() above).
  [[nodiscard]] const GmStage& stage() const {
    const std::uint64_t rev = fault_bus_ != nullptr ? fault_bus_->revision() : 0;
    if (!stage_cache_valid_ || rev != stage_cache_revision_) refresh_stage_cache(rev);
    return stage_cache_;
  }
  void refresh_stage_cache(std::uint64_t revision) const;

  DriverConfig config_;
  int code_ = 0;
  bool enabled_ = true;
  std::shared_ptr<const dac::CurrentLimitationDac> mirror_dac_;
  std::shared_ptr<const dac::AmplitudeControlLaw> law_;
  dac::PwlExponentialDac ideal_dac_;
  const faults::FaultBus* fault_bus_ = nullptr;

  mutable GmStage stage_cache_{GmStageConfig{}};
  mutable bool stage_cache_valid_ = false;
  mutable std::uint64_t stage_cache_revision_ = 0;
};

// Average rectified output current of `port` over a half oscillation
// cycle at differential amplitude A -- the quadrature inside
// OscillatorDriver::supply_current(), exposed so the batched envelope
// engine computes bit-identical supply figures from its cached port.
[[nodiscard]] double average_rectified_port_current(const GmStage& port, double amplitude);

}  // namespace lcosc::driver
