#include "system/internal_fmea.h"

#include "common/error.h"
#include "system/fault_sweep.h"

namespace lcosc::system {

namespace {

std::size_t channel_index(faults::DetectionChannel channel) {
  return static_cast<std::size_t>(channel);
}

// Internal on-chip faults as a fault-sweep family (system/fault_sweep.h).
struct InternalFaultFamily {
  using Row = InternalFmeaRow;
  static constexpr const char* kCampaign = "internal_fmea";

  const InternalFmeaConfig& config;
  std::vector<faults::InternalFault> faults;

  [[nodiscard]] std::optional<ScenarioAction> action(std::size_t i) const {
    return InternalFaultEvent{faults[i]};
  }
  [[nodiscard]] bool channel_hit(const Row& row, const safety::FaultFlags& flags) const {
    switch (row.expected) {
      case faults::DetectionChannel::None:
        return !flags.any();
      case faults::DetectionChannel::MissingOscillation:
        return flags.missing_oscillation;
      case faults::DetectionChannel::LowAmplitude:
        return flags.low_amplitude;
      case faults::DetectionChannel::Asymmetry:
        return flags.asymmetry;
      case faults::DetectionChannel::FrequencyOutOfBand:
        return flags.frequency_out_of_band;
    }
    return false;
  }
  [[nodiscard]] bool expects_detection(const Row& row) const {
    return row.expected != faults::DetectionChannel::None;
  }
};

}  // namespace

faults::DetectionChannel InternalFmeaRow::observed_channel() const {
  if (observed.missing_oscillation) return faults::DetectionChannel::MissingOscillation;
  if (observed.low_amplitude) return faults::DetectionChannel::LowAmplitude;
  if (observed.asymmetry) return faults::DetectionChannel::Asymmetry;
  if (observed.frequency_out_of_band) return faults::DetectionChannel::FrequencyOutOfBand;
  return faults::DetectionChannel::None;
}

std::size_t InternalFmeaReport::detected_count() const {
  std::size_t n = 0;
  for (const auto& r : rows) {
    if (r.status.completed() && r.detected) ++n;
  }
  return n;
}

std::size_t InternalFmeaReport::completed_count() const {
  std::size_t n = 0;
  for (const auto& r : rows) {
    if (r.status.completed()) ++n;
  }
  return n;
}

std::size_t InternalFmeaReport::error_count() const {
  return rows.size() - completed_count();
}

double InternalFmeaReport::diagnostic_coverage() const {
  const std::size_t completed = completed_count();
  if (completed == 0) return 0.0;
  return static_cast<double>(detected_count()) / static_cast<double>(completed);
}

std::vector<CoverageEntry> InternalFmeaReport::coverage_matrix() const {
  std::vector<CoverageEntry> matrix;
  for (const auto& row : rows) {
    CoverageEntry* entry = nullptr;
    for (auto& e : matrix) {
      if (e.kind == row.fault.kind) {
        entry = &e;
        break;
      }
    }
    if (entry == nullptr) {
      matrix.push_back(CoverageEntry{.kind = row.fault.kind});
      entry = &matrix.back();
    }
    ++entry->total;
    if (!row.status.completed()) {
      ++entry->errors;
    } else {
      ++entry->by_channel[channel_index(row.observed_channel())];
    }
  }
  return matrix;
}

std::vector<std::string> InternalFmeaReport::uncovered_gaps() const {
  std::vector<std::string> gaps;
  for (const auto& row : rows) {
    if (!row.status.completed() || row.detected) continue;
    std::string note = faults::gap_note(row.fault);
    if (note.empty()) note = "no modeled detection channel fired";
    gaps.push_back(faults::to_string(row.fault) + ": " + note);
  }
  return gaps;
}

InternalFmeaRow run_internal_fmea_case(const InternalFmeaConfig& config,
                                       const faults::InternalFault& fault) {
  return run_sweep_case(InternalFaultFamily{config, {fault}}, 0);
}

std::vector<faults::InternalFault> internal_fmea_case_list(const InternalFmeaConfig& config) {
  return config.faults.empty() ? faults::internal_fault_list() : config.faults;
}

InternalFmeaRow run_internal_fmea_case_at(const InternalFmeaConfig& config,
                                          std::size_t index) {
  const InternalFaultFamily family{config, internal_fmea_case_list(config)};
  LCOSC_REQUIRE(index < family.faults.size(), "internal FMEA case index out of range");
  return run_sweep_case(family, index);
}

std::vector<InternalFmeaRow> run_internal_fmea_cases(const InternalFmeaConfig& config,
                                                     std::size_t first, std::size_t count) {
  return run_fault_sweep(InternalFaultFamily{config, internal_fmea_case_list(config)}, first,
                         count, 1);
}

InternalFmeaReport run_internal_fmea_campaign(const InternalFmeaConfig& config) {
  const InternalFaultFamily family{config, internal_fmea_case_list(config)};
  InternalFmeaReport report;
  report.rows = run_fault_sweep(family, 0, family.faults.size(), config.workers);
  return report;
}

}  // namespace lcosc::system
