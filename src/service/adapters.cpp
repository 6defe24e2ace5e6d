#include "service/adapters.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "system/fmea_campaign.h"
#include "system/internal_fmea.h"
#include "system/tolerance_analysis.h"
#include "tank/rlc_tank.h"

namespace lcosc::service {

namespace {

// --- exact field codec ------------------------------------------------------
//
// Records are '|'-separated fields.  Doubles go through hexfloat
// ("%a"/strtod), which round-trips every finite value bit for bit, so a
// report rendered from checkpointed records is byte-identical to one
// rendered from freshly-computed rows.  Strings (error messages) escape
// the separator and newlines.

std::string enc_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '|': out += "\\p"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
}

class FieldWriter {
 public:
  FieldWriter& d(double v) { return raw(enc_double(v)); }
  FieldWriter& i(long long v) { return raw(std::to_string(v)); }
  FieldWriter& b(bool v) { return raw(v ? "1" : "0"); }
  FieldWriter& s(const std::string& v) {
    if (!line_.empty()) line_.push_back('|');
    append_escaped(line_, v);
    return *this;
  }
  [[nodiscard]] std::string str() && { return std::move(line_); }

 private:
  FieldWriter& raw(std::string field) {
    if (!line_.empty()) line_.push_back('|');
    line_ += field;
    return *this;
  }
  std::string line_;
};

class FieldReader {
 public:
  explicit FieldReader(const std::string& record) {
    std::string field;
    for (std::size_t i = 0; i < record.size(); ++i) {
      const char c = record[i];
      if (c == '\\' && i + 1 < record.size()) {
        const char e = record[++i];
        if (e == 'p') field.push_back('|');
        else if (e == 'n') field.push_back('\n');
        else field.push_back(e);
      } else if (c == '|') {
        fields_.push_back(std::move(field));
        field.clear();
      } else {
        field.push_back(c);
      }
    }
    fields_.push_back(std::move(field));
  }

  double d() { return std::strtod(next().c_str(), nullptr); }
  long long i() { return std::strtoll(next().c_str(), nullptr, 10); }
  bool b() { return next() == "1"; }
  std::string s() { return next(); }

 private:
  const std::string& next() {
    LCOSC_REQUIRE(pos_ < fields_.size(), "campaign record: too few fields");
    return fields_[pos_++];
  }

  std::vector<std::string> fields_;
  std::size_t pos_ = 0;
};

void enc_status(FieldWriter& w, const CampaignCase& status) {
  w.i(static_cast<int>(status.outcome)).i(status.retries).s(status.error);
}

CampaignCase dec_status(FieldReader& r) {
  CampaignCase status;
  status.outcome = static_cast<CaseOutcome>(r.i());
  status.retries = static_cast<int>(r.i());
  status.error = r.s();
  return status;
}

// Fixed human-readable number format for report bodies ("%.6g"):
// deterministic given bit-identical inputs, which the hexfloat records
// guarantee.
std::string g6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// --- shared bench-default system configs ------------------------------------

tank::TankConfig default_tank() { return tank::design_tank(4.0e6, 40.0, 3.3e-6); }

// --- tolerance adapter ------------------------------------------------------

class ToleranceCampaign final : public ShardableCampaign {
 public:
  explicit ToleranceCampaign(const CampaignSpec& spec) {
    config_.nominal.tank = default_tank();
    config_.nominal.regulation.tick_period = 0.25e-3;
    config_.samples = spec.samples;
    config_.seed = spec.seed;
    config_.run_duration = spec.run_duration;
    config_.max_retries = spec.max_retries;
    config_.retry_backoff = spec.case_backoff;
    config_.chunk_lanes = static_cast<std::size_t>(spec.chunk_lanes);
  }

  [[nodiscard]] std::size_t case_count() const override {
    return static_cast<std::size_t>(config_.samples);
  }

  [[nodiscard]] std::string case_label(std::size_t index) const override {
    return "tolerance:sample_" + std::to_string(index);
  }

  [[nodiscard]] std::string run_case(std::size_t index) const override {
    return encode(system::run_tolerance_sample(config_, static_cast<int>(index)));
  }

  // Chunked drain: the span goes through the lockstep batched engine
  // (run_tolerance_samples cuts it at global chunk_lanes boundaries), so
  // a shard worker advances up to chunk_lanes cases in one SoA time loop
  // instead of one EnvelopeSimulator per case.  Lane arithmetic is
  // independent and the serial fallback replays diverging lanes through
  // run_tolerance_sample, so record i is byte-identical to
  // run_case(first + i) for every span slicing.
  [[nodiscard]] std::vector<std::string> run_cases(std::size_t first,
                                                   std::size_t count) const override {
    const std::vector<system::ToleranceSample> samples =
        system::run_tolerance_samples(config_, first, count);
    std::vector<std::string> records;
    records.reserve(samples.size());
    for (const system::ToleranceSample& sample : samples) records.push_back(encode(sample));
    return records;
  }

  [[nodiscard]] std::size_t chunk_stride() const override { return config_.chunk_lanes; }

  [[nodiscard]] std::string error_record(std::size_t /*index*/,
                                         const std::string& message) const override {
    system::ToleranceSample sample;
    sample.status.outcome = CaseOutcome::SimulationError;
    sample.status.error = message;
    return encode(sample);
  }

  [[nodiscard]] bool is_error_record(const std::string& record) const override {
    return decode(record).status.outcome == CaseOutcome::SimulationError;
  }

  [[nodiscard]] std::string report(const std::vector<std::string>& records) const override {
    system::ToleranceReport rep;
    rep.samples.reserve(records.size());
    for (const std::string& record : records) rep.samples.push_back(decode(record));

    std::size_t completed = 0;
    for (const auto& s : rep.samples) {
      if (s.status.completed()) ++completed;
    }

    std::ostringstream out;
    out << "campaign: tolerance\n"
        << "samples: " << rep.samples.size() << "  seed: " << config_.seed
        << "  run_ms: " << g6(config_.run_duration * 1e3) << "\n"
        << "idx | L_uH | C1_nF | C2_nF | Rs_ohm | f0_MHz | Q | code | amp_V"
           " | supply_mA | window | outcome | retries | error\n";
    for (std::size_t i = 0; i < rep.samples.size(); ++i) {
      const system::ToleranceSample& s = rep.samples[i];
      out << i << " | " << g6(s.tank.inductance * 1e6) << " | "
          << g6(s.tank.capacitance1 * 1e9) << " | " << g6(s.tank.capacitance2 * 1e9)
          << " | " << g6(s.tank.series_resistance) << " | "
          << g6(s.resonance_frequency * 1e-6) << " | " << g6(s.quality_factor) << " | "
          << s.settled_code << " | " << g6(s.settled_amplitude) << " | "
          << g6(s.supply_current * 1e3) << " | " << (s.in_window ? "yes" : "no") << " | "
          << to_string(s.status.outcome) << " | " << s.status.retries << " | "
          << s.status.error << "\n";
    }
    out << "completed: " << completed << "  errors: " << rep.error_count()
        << "  yield: " << g6(rep.yield()) << "\n";
    if (completed > 0) {
      out << "amplitude_V: min " << g6(rep.min_amplitude()) << "  max "
          << g6(rep.max_amplitude()) << "\n"
          << "code: min " << rep.min_code() << "  max " << rep.max_code() << "\n"
          << "supply_mA: max " << g6(rep.max_supply_current() * 1e3) << "\n";
    }
    return out.str();
  }

 private:
  static std::string encode(const system::ToleranceSample& s) {
    FieldWriter w;
    w.d(s.tank.inductance)
        .d(s.tank.capacitance1)
        .d(s.tank.capacitance2)
        .d(s.tank.series_resistance)
        .d(s.resonance_frequency)
        .d(s.quality_factor)
        .i(s.settled_code)
        .d(s.settled_amplitude)
        .d(s.supply_current)
        .b(s.in_window);
    enc_status(w, s.status);
    return std::move(w).str();
  }

  static system::ToleranceSample decode(const std::string& record) {
    FieldReader r(record);
    system::ToleranceSample s;
    s.tank.inductance = r.d();
    s.tank.capacitance1 = r.d();
    s.tank.capacitance2 = r.d();
    s.tank.series_resistance = r.d();
    s.resonance_frequency = r.d();
    s.quality_factor = r.d();
    s.settled_code = static_cast<int>(r.i());
    s.settled_amplitude = r.d();
    s.supply_current = r.d();
    s.in_window = r.b();
    s.status = dec_status(r);
    return s;
  }

  system::ToleranceConfig config_;
};

// --- FMEA row codec (shared by the external and internal adapters) ----------

struct FmeaCaseFields {
  safety::FaultFlags observed{};
  bool detected = false;
  bool expected_channel_hit = false;
  bool safe_state_entered = false;
  std::optional<double> detection_latency;
  int final_code = 0;
  CampaignCase status{};
};

std::string encode_fmea_fields(const FmeaCaseFields& f) {
  FieldWriter w;
  w.b(f.observed.missing_oscillation)
      .b(f.observed.low_amplitude)
      .b(f.observed.asymmetry)
      .b(f.observed.frequency_out_of_band)
      .b(f.detected)
      .b(f.expected_channel_hit)
      .b(f.safe_state_entered)
      .b(f.detection_latency.has_value())
      .d(f.detection_latency.value_or(0.0))
      .i(f.final_code);
  enc_status(w, f.status);
  return std::move(w).str();
}

FmeaCaseFields decode_fmea_fields(const std::string& record) {
  FieldReader r(record);
  FmeaCaseFields f;
  f.observed.missing_oscillation = r.b();
  f.observed.low_amplitude = r.b();
  f.observed.asymmetry = r.b();
  f.observed.frequency_out_of_band = r.b();
  f.detected = r.b();
  f.expected_channel_hit = r.b();
  f.safe_state_entered = r.b();
  const bool has_latency = r.b();
  const double latency = r.d();
  if (has_latency) f.detection_latency = latency;
  f.final_code = static_cast<int>(r.i());
  f.status = dec_status(r);
  return f;
}

std::string latency_cell(const std::optional<double>& latency) {
  return latency.has_value() ? g6(*latency * 1e3) : std::string("-");
}

// --- external FMEA adapter --------------------------------------------------

class ExternalFmeaCampaign final : public ShardableCampaign {
 public:
  explicit ExternalFmeaCampaign(const CampaignSpec& spec) {
    config_.system.tank = default_tank();
    config_.system.regulation.tick_period = 0.25e-3;
    config_.system.waveform_decimation = 0;
    config_.settle_time = spec.settle_time;
    config_.observe_time = spec.observe_time;
    config_.max_retries = spec.max_retries;
    config_.retry_backoff = spec.case_backoff;
    chunk_stride_ = static_cast<std::size_t>(spec.chunk_lanes);
  }

  [[nodiscard]] std::size_t case_count() const override { return system::fmea_case_count(); }

  [[nodiscard]] std::string case_label(std::size_t index) const override {
    return "fmea:" + tank::to_string(system::fmea_fault_list()[index]);
  }

  [[nodiscard]] std::string run_case(std::size_t index) const override {
    return encode_row(system::run_fmea_case_at(config_, index));
  }

  // Chunked drain: a contiguous span shares one healthy settle prefix,
  // byte-identical to per-case execution (system/fault_sweep.h).
  [[nodiscard]] std::vector<std::string> run_cases(std::size_t first,
                                                   std::size_t count) const override {
    std::vector<std::string> records;
    records.reserve(count);
    for (const system::FmeaRow& row : system::run_fmea_cases(config_, first, count)) {
      records.push_back(encode_row(row));
    }
    return records;
  }

  [[nodiscard]] std::size_t chunk_stride() const override { return chunk_stride_; }

  [[nodiscard]] std::string error_record(std::size_t /*index*/,
                                         const std::string& message) const override {
    FmeaCaseFields f;
    f.status.outcome = CaseOutcome::SimulationError;
    f.status.error = message;
    return encode_fmea_fields(f);
  }

  [[nodiscard]] bool is_error_record(const std::string& record) const override {
    return decode_fmea_fields(record).status.outcome == CaseOutcome::SimulationError;
  }

  [[nodiscard]] std::string report(const std::vector<std::string>& records) const override {
    const std::vector<tank::TankFault> faults = system::fmea_fault_list();
    system::FmeaReport rep;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const FmeaCaseFields f = decode_fmea_fields(records[i]);
      system::FmeaRow row;
      row.fault = faults[i];
      row.expected = tank::expected_detection(faults[i]);
      row.observed = f.observed;
      row.detected = f.detected;
      row.expected_channel_hit = f.expected_channel_hit;
      row.safe_state_entered = f.safe_state_entered;
      row.detection_latency = f.detection_latency;
      row.final_code = f.final_code;
      row.status = f.status;
      rep.rows.push_back(row);
    }

    std::ostringstream out;
    out << "campaign: fmea\n"
        << "cases: " << rep.rows.size() << "  settle_ms: " << g6(config_.settle_time * 1e3)
        << "  observe_ms: " << g6(config_.observe_time * 1e3) << "\n"
        << "fault | expected | detected | expected_hit | safe_state | latency_ms"
           " | final_code | outcome | retries | error\n";
    for (const system::FmeaRow& row : rep.rows) {
      out << tank::to_string(row.fault) << " | " << tank::to_string(row.expected) << " | "
          << (row.detected ? "yes" : "no") << " | "
          << (row.expected_channel_hit ? "yes" : "no") << " | "
          << (row.safe_state_entered ? "yes" : "no") << " | "
          << latency_cell(row.detection_latency) << " | " << row.final_code << " | "
          << to_string(row.status.outcome) << " | " << row.status.retries << " | "
          << row.status.error << "\n";
    }
    out << "detected: " << rep.detected_count() << "/" << rep.rows.size()
        << "  expected_channel: " << rep.expected_channel_count() << "/" << rep.rows.size()
        << "\n";
    return out.str();
  }

 private:
  [[nodiscard]] static std::string encode_row(const system::FmeaRow& row) {
    FmeaCaseFields f;
    f.observed = row.observed;
    f.detected = row.detected;
    f.expected_channel_hit = row.expected_channel_hit;
    f.safe_state_entered = row.safe_state_entered;
    f.detection_latency = row.detection_latency;
    f.final_code = row.final_code;
    f.status = row.status;
    return encode_fmea_fields(f);
  }

  system::FmeaCampaignConfig config_;
  std::size_t chunk_stride_ = 64;
};

// --- internal FMEA adapter --------------------------------------------------

class InternalFmeaCampaign final : public ShardableCampaign {
 public:
  explicit InternalFmeaCampaign(const CampaignSpec& spec) {
    config_.system.tank = default_tank();
    config_.system.regulation.tick_period = 0.25e-3;
    config_.system.regulation.nvm_code = 45;
    config_.system.waveform_decimation = 0;
    config_.settle_time = spec.settle_time;
    config_.observe_time = spec.observe_time;
    config_.max_retries = spec.max_retries;
    config_.retry_backoff = spec.case_backoff;
    chunk_stride_ = static_cast<std::size_t>(spec.chunk_lanes);
    faults_ = system::internal_fmea_case_list(config_);
  }

  [[nodiscard]] std::size_t case_count() const override { return faults_.size(); }

  [[nodiscard]] std::string case_label(std::size_t index) const override {
    return "internal_fmea:" + faults::to_string(faults_[index]);
  }

  [[nodiscard]] std::string run_case(std::size_t index) const override {
    return encode_row(system::run_internal_fmea_case_at(config_, index));
  }

  // Chunked drain: a contiguous span shares one healthy settle prefix,
  // byte-identical to per-case execution (system/fault_sweep.h).
  [[nodiscard]] std::vector<std::string> run_cases(std::size_t first,
                                                   std::size_t count) const override {
    std::vector<std::string> records;
    records.reserve(count);
    for (const system::InternalFmeaRow& row :
         system::run_internal_fmea_cases(config_, first, count)) {
      records.push_back(encode_row(row));
    }
    return records;
  }

  [[nodiscard]] std::size_t chunk_stride() const override { return chunk_stride_; }

  [[nodiscard]] std::string error_record(std::size_t /*index*/,
                                         const std::string& message) const override {
    FmeaCaseFields f;
    f.status.outcome = CaseOutcome::SimulationError;
    f.status.error = message;
    return encode_fmea_fields(f);
  }

  [[nodiscard]] bool is_error_record(const std::string& record) const override {
    return decode_fmea_fields(record).status.outcome == CaseOutcome::SimulationError;
  }

  [[nodiscard]] std::string report(const std::vector<std::string>& records) const override {
    system::InternalFmeaReport rep;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const FmeaCaseFields f = decode_fmea_fields(records[i]);
      system::InternalFmeaRow row;
      row.fault = faults_[i];
      row.expected = faults::expected_detection(faults_[i]);
      row.observed = f.observed;
      row.detected = f.detected;
      row.expected_channel_hit = f.expected_channel_hit;
      row.safe_state_entered = f.safe_state_entered;
      row.detection_latency = f.detection_latency;
      row.final_code = f.final_code;
      row.status = f.status;
      rep.rows.push_back(row);
    }

    std::ostringstream out;
    out << "campaign: internal_fmea\n"
        << "cases: " << rep.rows.size() << "  settle_ms: " << g6(config_.settle_time * 1e3)
        << "  observe_ms: " << g6(config_.observe_time * 1e3) << "\n"
        << "fault | expected | observed | detected | safe_state | latency_ms"
           " | final_code | outcome | retries | error\n";
    for (const system::InternalFmeaRow& row : rep.rows) {
      out << faults::to_string(row.fault) << " | " << faults::to_string(row.expected)
          << " | " << faults::to_string(row.observed_channel()) << " | "
          << (row.detected ? "yes" : "no") << " | "
          << (row.safe_state_entered ? "yes" : "no") << " | "
          << latency_cell(row.detection_latency) << " | " << row.final_code << " | "
          << to_string(row.status.outcome) << " | " << row.status.retries << " | "
          << row.status.error << "\n";
    }
    out << "completed: " << rep.completed_count() << "  errors: " << rep.error_count()
        << "  detected: " << rep.detected_count()
        << "  diagnostic_coverage: " << g6(rep.diagnostic_coverage()) << "\n";
    for (const std::string& gap : rep.uncovered_gaps()) out << "gap: " << gap << "\n";
    return out.str();
  }

 private:
  [[nodiscard]] static std::string encode_row(const system::InternalFmeaRow& row) {
    FmeaCaseFields f;
    f.observed = row.observed;
    f.detected = row.detected;
    f.expected_channel_hit = row.expected_channel_hit;
    f.safe_state_entered = row.safe_state_entered;
    f.detection_latency = row.detection_latency;
    f.final_code = row.final_code;
    f.status = row.status;
    return encode_fmea_fields(f);
  }

  system::InternalFmeaConfig config_;
  std::vector<faults::InternalFault> faults_;
  std::size_t chunk_stride_ = 64;
};

}  // namespace

std::unique_ptr<ShardableCampaign> make_campaign(const CampaignSpec& spec) {
  // Same bound parse_spec_json enforces; flag-built specs (--chunk-lanes)
  // reach here without passing through the JSON parser, and an
  // out-of-range value must be a crisp up-front refusal, not a shard
  // worker crash-looping into degraded rows.
  LCOSC_REQUIRE(spec.chunk_lanes >= 1 && spec.chunk_lanes <= 4096,
                "campaign spec: chunk_lanes must be in [1, 4096]");
  switch (spec.kind) {
    case CampaignKind::Tolerance:
      return std::make_unique<ToleranceCampaign>(spec);
    case CampaignKind::ExternalFmea:
      return std::make_unique<ExternalFmeaCampaign>(spec);
    case CampaignKind::InternalFmea:
      return std::make_unique<InternalFmeaCampaign>(spec);
  }
  throw ConfigError("unknown campaign kind");
}

}  // namespace lcosc::service
