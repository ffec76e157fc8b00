#include "sgnn/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "sgnn/util/error.hpp"
#include "sgnn/util/parse.hpp"

namespace sgnn::obs {

namespace {

using util::format_double;
using util::json_escape;

void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  SGNN_CHECK(!bounds_.empty(), "histogram needs at least one bucket bound");
  SGNN_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
             "histogram bounds must be sorted ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.buckets.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  const double min = min_.load(std::memory_order_relaxed);
  const double max = max_.load(std::memory_order_relaxed);
  snap.min = std::isfinite(min) ? min : 0.0;
  snap.max = std::isfinite(max) ? max : 0.0;
  return snap;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      // Interpolate within the bucket; edge buckets are clamped by the
      // observed extremes so one-sided ladders still give finite answers.
      const double lower = i == 0 ? min : std::max(min, bounds[i - 1]);
      const double upper = i == bounds.size() ? max : std::min(max, bounds[i]);
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return max;
}

std::vector<double> Histogram::exponential_bounds(double lo, double hi,
                                                  double factor) {
  SGNN_CHECK(lo > 0 && hi > lo, "exponential bounds need 0 < lo < hi");
  SGNN_CHECK(factor > 1, "exponential bound factor must exceed 1");
  std::vector<double> bounds;
  for (double b = lo; b < hi * factor; b *= factor) bounds.push_back(b);
  return bounds;
}

std::vector<double> Histogram::default_seconds_bounds() {
  return exponential_bounds(1e-6, 1e3, 2.0);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (bounds.empty()) bounds = Histogram::default_seconds_bounds();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->snapshot();
  }
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    os << name << " = " << value << '\n';
  }
  for (const auto& [name, value] : gauges) {
    os << name << " = " << value << '\n';
  }
  for (const auto& [name, h] : histograms) {
    os << name << ": count=" << h.count << " mean=" << h.mean()
       << " p50=" << h.quantile(0.50) << " p95=" << h.quantile(0.95)
       << " p99=" << h.quantile(0.99) << " min=" << h.min << " max=" << h.max
       << '\n';
  }
  return os.str();
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":" + format_double(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) +
           "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + format_double(h.sum) +
           ",\"mean\":" + format_double(h.mean()) +
           ",\"p50\":" + format_double(h.quantile(0.50)) +
           ",\"p95\":" + format_double(h.quantile(0.95)) +
           ",\"p99\":" + format_double(h.quantile(0.99)) +
           ",\"min\":" + format_double(h.min) +
           ",\"max\":" + format_double(h.max) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace sgnn::obs
