#include "system/fmea_campaign.h"

#include "common/error.h"
#include "system/fault_sweep.h"

namespace lcosc::system {

std::size_t FmeaReport::detected_count() const {
  std::size_t n = 0;
  for (const auto& r : rows) {
    if (r.detected) ++n;
  }
  return n;
}

std::size_t FmeaReport::expected_channel_count() const {
  std::size_t n = 0;
  for (const auto& r : rows) {
    if (r.expected_channel_hit) ++n;
  }
  return n;
}

bool FmeaReport::all_detected() const { return detected_count() == rows.size(); }

std::vector<tank::TankFault> fmea_fault_list() {
  return {tank::TankFault::OpenCoil,        tank::TankFault::CoilShortToGround,
          tank::TankFault::CoilShortToSupply, tank::TankFault::ShortedTurns,
          tank::TankFault::IncreasedResistance, tank::TankFault::MissingCosc1,
          tank::TankFault::MissingCosc2,    tank::TankFault::DegradedCosc1};
}

namespace {

// External tank faults as a fault-sweep family (system/fault_sweep.h).
struct ExternalFaultFamily {
  using Row = FmeaRow;
  static constexpr const char* kCampaign = "fmea";

  const FmeaCampaignConfig& config;
  std::vector<tank::TankFault> faults;

  // The None control runs the healthy system: nothing is injected.
  [[nodiscard]] std::optional<ScenarioAction> action(std::size_t i) const {
    if (faults[i] == tank::TankFault::None) return std::nullopt;
    return FaultEvent{faults[i], config.severity};
  }
  [[nodiscard]] bool channel_hit(const Row& row, const safety::FaultFlags& flags) const {
    switch (row.expected) {
      case tank::DetectionChannel::NoneExpected:
        return !flags.any();
      case tank::DetectionChannel::MissingOscillation:
        return flags.missing_oscillation;
      case tank::DetectionChannel::LowAmplitude:
        return flags.low_amplitude;
      case tank::DetectionChannel::Asymmetry:
        return flags.asymmetry;
    }
    return false;
  }
  [[nodiscard]] bool expects_detection(const Row& row) const {
    return row.expected != tank::DetectionChannel::NoneExpected;
  }
};

}  // namespace

FmeaRow run_fmea_case(const FmeaCampaignConfig& config, tank::TankFault fault) {
  return run_sweep_case(ExternalFaultFamily{config, {fault}}, 0);
}

std::size_t fmea_case_count() { return fmea_fault_list().size(); }

FmeaRow run_fmea_case_at(const FmeaCampaignConfig& config, std::size_t index) {
  LCOSC_REQUIRE(index < fmea_case_count(), "FMEA case index out of range");
  return run_sweep_case(ExternalFaultFamily{config, fmea_fault_list()}, index);
}

std::vector<FmeaRow> run_fmea_cases(const FmeaCampaignConfig& config, std::size_t first,
                                    std::size_t count) {
  return run_fault_sweep(ExternalFaultFamily{config, fmea_fault_list()}, first, count, 1);
}

FmeaReport run_fmea_campaign(const FmeaCampaignConfig& config) {
  FmeaReport report;
  report.rows = run_fault_sweep(ExternalFaultFamily{config, fmea_fault_list()}, 0,
                                fmea_case_count(), config.workers);
  return report;
}

}  // namespace lcosc::system
