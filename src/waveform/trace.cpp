#include "waveform/trace.h"

#include <algorithm>

#include "common/error.h"

namespace lcosc {

Trace::Trace(const Trace& other) : name_(other.name_) {
  times_.reserve(other.times_.capacity());
  values_.reserve(other.values_.capacity());
  times_.assign(other.times_.begin(), other.times_.end());
  values_.assign(other.values_.begin(), other.values_.end());
}

void Trace::append(double time, double value) {
  LCOSC_REQUIRE(times_.empty() || time > times_.back(),
                "trace time stamps must be strictly increasing");
  times_.push_back(time);
  values_.push_back(value);
}

double Trace::start_time() const {
  LCOSC_REQUIRE(!times_.empty(), "trace is empty");
  return times_.front();
}

double Trace::end_time() const {
  LCOSC_REQUIRE(!times_.empty(), "trace is empty");
  return times_.back();
}

double Trace::duration() const { return end_time() - start_time(); }

double Trace::sample_at(double time) const {
  LCOSC_REQUIRE(!times_.empty(), "trace is empty");
  if (time <= times_.front()) return values_.front();
  if (time >= times_.back()) return values_.back();
  const auto it = std::upper_bound(times_.begin(), times_.end(), time);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const double t0 = times_[hi - 1];
  const double t1 = times_[hi];
  const double f = (time - t0) / (t1 - t0);
  return values_[hi - 1] + f * (values_[hi] - values_[hi - 1]);
}

Trace Trace::window(double t0, double t1) const {
  Trace out(name_);
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (times_[i] >= t0 && times_[i] <= t1) out.append(times_[i], values_[i]);
  }
  return out;
}

Trace Trace::decimated(std::size_t n) const {
  LCOSC_REQUIRE(n >= 1, "decimation factor must be >= 1");
  Trace out(name_);
  for (std::size_t i = 0; i < times_.size(); i += n) out.append(times_[i], values_[i]);
  if (!times_.empty() && (times_.size() - 1) % n != 0) {
    out.append(times_.back(), values_.back());
  }
  return out;
}

void Trace::clear() {
  times_.clear();
  values_.clear();
}

void Trace::reserve(std::size_t n) {
  times_.reserve(n);
  values_.reserve(n);
}

}  // namespace lcosc
