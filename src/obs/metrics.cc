#include "obs/metrics.h"

#include "util/check.h"
#include "util/json.h"

namespace dwrs::obs {

// --- Snapshot ---------------------------------------------------------

const SnapshotValue* Snapshot::Find(const std::string& name) const {
  for (const auto& [entry_name, value] : entries_) {
    if (entry_name == name) return &value;
  }
  return nullptr;
}

std::string Snapshot::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i != 0) out += ", ";
    out += util::JsonQuote(entries_[i].first);
    out += ": ";
    const SnapshotValue& v = entries_[i].second;
    out += v.kind == SnapshotValue::Kind::kUint ? std::to_string(v.u)
                                                : util::JsonNumber(v.d);
  }
  out += "}";
  return out;
}

std::string Snapshot::ToText() const {
  std::string out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i != 0) out += ' ';
    out += entries_[i].first;
    out += '=';
    const SnapshotValue& v = entries_[i].second;
    out += v.kind == SnapshotValue::Kind::kUint ? std::to_string(v.u)
                                                : util::JsonNumber(v.d);
  }
  return out;
}

// --- LatencyHistogram -------------------------------------------------

LatencyHistogram::LatencyHistogram(double lo, double hi, int bins)
    : layout_(Histogram::Logarithmic(lo, hi, bins)),
      bins_(static_cast<size_t>(bins)) {}

void LatencyHistogram::Record(double value) {
  bins_[static_cast<size_t>(layout_.BinFor(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double LatencyHistogram::Quantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  const uint64_t rank =
      static_cast<uint64_t>(q * static_cast<double>(n - 1)) + 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < bins_.size(); ++b) {
    seen += bins_[b].load(std::memory_order_relaxed);
    if (seen >= rank) return layout_.bin_upper(static_cast<int>(b));
  }
  return layout_.bin_upper(static_cast<int>(bins_.size()) - 1);
}

void LatencyHistogram::AppendTo(const std::string& prefix,
                                Snapshot* out) const {
  out->Append(prefix + "/count", count());
  out->Append(prefix + "/sum", sum());
  out->Append(prefix + "/mean", mean());
  out->Append(prefix + "/p50", Quantile(0.50));
  out->Append(prefix + "/p99", Quantile(0.99));
}

// --- Registry ---------------------------------------------------------

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [n, c] : counters_) {
    if (n == name) return c.get();
  }
  counters_.emplace_back(name, std::make_unique<Counter>());
  return counters_.back().second.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [n, g] : gauges_) {
    if (n == name) return g.get();
  }
  gauges_.emplace_back(name, std::make_unique<Gauge>());
  return gauges_.back().second.get();
}

LatencyHistogram* Registry::GetHistogram(const std::string& name, double lo,
                                         double hi, int bins) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [n, h] : histograms_) {
    if (n == name) return h.get();
  }
  histograms_.emplace_back(name,
                           std::make_unique<LatencyHistogram>(lo, hi, bins));
  return histograms_.back().second.get();
}

void Registry::AddCollector(CollectorFn fn) {
  DWRS_CHECK(fn != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_.push_back(std::move(fn));
}

Snapshot Registry::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot out;
  for (const auto& [name, counter] : counters_) {
    out.Append(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    out.Append(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    histogram->AppendTo(name, &out);
  }
  for (const CollectorFn& fn : collectors_) fn(&out);
  return out;
}

}  // namespace dwrs::obs
