// Time-series container produced by the transient engines.
//
// A Trace is a non-uniformly sampled scalar signal (time, value) with
// strictly increasing time stamps; the measurement routines in
// measurements.h all consume Traces.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace lcosc {

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}
  // A copy keeps the source's reserved capacity, so a copy that keeps
  // growing (a RunSession resumed from a shared prefix) reallocates
  // exactly when the original would have.  One allocation, one pass.
  Trace(const Trace& other);
  Trace& operator=(const Trace& other) = default;
  Trace(Trace&& other) noexcept = default;
  Trace& operator=(Trace&& other) noexcept = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // Append a sample; time must be strictly greater than the previous
  // sample's (throws ConfigError otherwise).
  void append(double time, double value);

  [[nodiscard]] bool empty() const { return times_.empty(); }
  [[nodiscard]] std::size_t size() const { return times_.size(); }

  [[nodiscard]] const std::vector<double>& times() const { return times_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  [[nodiscard]] double time(std::size_t i) const { return times_[i]; }
  [[nodiscard]] double value(std::size_t i) const { return values_[i]; }

  [[nodiscard]] double start_time() const;
  [[nodiscard]] double end_time() const;
  [[nodiscard]] double duration() const;

  // Linear interpolation at an arbitrary time inside [start, end]
  // (clamped outside).
  [[nodiscard]] double sample_at(double time) const;

  // Sub-trace restricted to [t0, t1] (samples inside the window).
  [[nodiscard]] Trace window(double t0, double t1) const;

  // Reduce memory: keep every n-th sample (n >= 1), always keeping the
  // last sample.
  [[nodiscard]] Trace decimated(std::size_t n) const;

  void clear();
  void reserve(std::size_t n);

 private:
  std::string name_;
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace lcosc
