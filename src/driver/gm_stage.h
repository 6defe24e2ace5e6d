// Current-limited transconductance stage: the nonlinearity that regulates
// the oscillation amplitude (paper Fig. 2 and Section 2).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace lcosc::driver {

// Shape of the limiting V-I characteristic.
enum class LimitShape {
  Hard,  // linear with hard clipping (the paper's Fig. 2 approximation)
  Tanh,  // smooth saturation (closer to a real differential pair)
};

struct GmStageConfig {
  double gm = 1e-3;             // small-signal transconductance [S]
  double current_limit = 1e-3;  // +-Im [A]
  LimitShape shape = LimitShape::Hard;
};

class GmStage {
 public:
  explicit GmStage(GmStageConfig config);

  [[nodiscard]] const GmStageConfig& config() const { return config_; }
  void set_current_limit(double limit);
  void set_gm(double gm);

  // Static output current for input voltage v (Fig. 2).  Forced inline:
  // this is the innermost call of the RK4 system loop (four derivative
  // evaluations per step, two stages each).
  [[nodiscard, gnu::always_inline]] double output_current(double v) const {
    const double im = config_.current_limit;
    switch (config_.shape) {
      [[likely]] case LimitShape::Hard:
        return std::clamp(config_.gm * v, -im, im);
      case LimitShape::Tanh:
        return im > 0.0 ? im * std::tanh(config_.gm * v / im) : 0.0;
    }
    return 0.0;
  }

  // Input voltage at which limiting starts (Hard shape): Im / gm.
  [[nodiscard]] double saturation_voltage() const;

  // Describing function N(A): ratio of the fundamental output current to a
  // sinusoidal input of amplitude A.  Closed form for Hard, numeric
  // quadrature for Tanh.  N(0+) = gm; N(inf) -> 4*Im/(pi*A).
  [[nodiscard]] double describing_gain(double amplitude) const;

  // Fundamental output current amplitude for sine input of amplitude A.
  [[nodiscard]] double fundamental_current(double amplitude) const;

  // The paper's k factor: fundamental current / current limit at input
  // amplitude A (approaches 4/pi deep in limiting; ~0.9 near moderate
  // overdrive, matching the paper's quoted value for the linear shape).
  [[nodiscard]] double shape_factor(double amplitude) const;

 private:
  GmStageConfig config_;
};

// Bit equality of two stage configs: a GmStage is a pure function of its
// config, so equal configs make every output above equal, bit for bit.
// The one comparison behind the fault sweep's shared trajectories
// (OscillatorDriver::effective_stage) and the batched envelope engine's
// per-lane step memo (differential_port_stage).
inline bool same_drive_stage(const GmStageConfig& a, const GmStageConfig& b) {
  return std::bit_cast<std::uint64_t>(a.gm) == std::bit_cast<std::uint64_t>(b.gm) &&
         std::bit_cast<std::uint64_t>(a.current_limit) ==
             std::bit_cast<std::uint64_t>(b.current_limit) &&
         a.shape == b.shape;
}

}  // namespace lcosc::driver
