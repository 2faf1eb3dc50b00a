// Unified metrics registry: named counters, gauges and latency
// histograms with pre-registered handles, plus the Snapshot value type
// every layer's counters are exported through.
//
// Hot-path contract: a handle obtained from Registry::GetCounter /
// GetGauge / GetHistogram is a stable pointer for the registry's
// lifetime; updating through it is a relaxed atomic operation with zero
// allocation. Registration (name lookup) takes a mutex and may
// allocate — do it once at setup, never per event.
//
// Snapshot is the single export path: an ordered list of
// (hierarchical name, value) pairs where uint64 counters stay uint64
// (bit-exact against the legacy counter structs — the equality the obs
// tests pin) and derived rates/latencies are doubles. One snapshot
// serializes to JSON (dwrs_cli stats, bench rows) or to the "k=v"
// text every ToString in the tree now routes through (obs/schema.h).

#ifndef DWRS_OBS_METRICS_H_
#define DWRS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.h"

namespace dwrs::obs {

// --- snapshot ---------------------------------------------------------

struct SnapshotValue {
  enum class Kind { kUint, kDouble };
  Kind kind = Kind::kUint;
  uint64_t u = 0;
  double d = 0.0;
};

// Ordered (name, value) export. Names are hierarchical with '/'
// separators: "messages/site_to_coord", "engine/ingest_stalls",
// "faults/retransmits_sent", "query/latency_us/p99".
class Snapshot {
 public:
  void Append(const std::string& name, uint64_t value) {
    SnapshotValue v;
    v.kind = SnapshotValue::Kind::kUint;
    v.u = value;
    entries_.emplace_back(name, v);
  }
  void Append(const std::string& name, double value) {
    SnapshotValue v;
    v.kind = SnapshotValue::Kind::kDouble;
    v.d = value;
    entries_.emplace_back(name, v);
  }

  const std::vector<std::pair<std::string, SnapshotValue>>& entries() const {
    return entries_;
  }

  // nullptr when absent.
  const SnapshotValue* Find(const std::string& name) const;

  // {"name": value, ...} with insertion order preserved; uint64 values
  // are emitted as integers (no double rounding).
  std::string ToJson() const;

  // "name=value name=value ..." — the human-readable form the legacy
  // ToString methods now produce via obs/schema.h.
  std::string ToText() const;

 private:
  std::vector<std::pair<std::string, SnapshotValue>> entries_;
};

// --- instruments ------------------------------------------------------

class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log-spaced latency histogram with relaxed atomic bins. The bin layout
// is delegated to stats/histogram (the same edges its text renderer and
// quantile logic use); only the mutation path is atomic. Record() is
// wait-free: one BinFor computation plus three relaxed RMWs.
class LatencyHistogram {
 public:
  // [lo, hi) in the caller's unit (the registry convention is
  // microseconds for "*_us" names); values outside clamp to the edge
  // bins.
  LatencyHistogram(double lo, double hi, int bins);

  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  // Upper edge of the bin holding the q-quantile (0 when empty).
  double Quantile(double q) const;

  // Appends count/sum/mean/p50/p99/max-bin under `prefix`.
  void AppendTo(const std::string& prefix, Snapshot* out) const;

 private:
  const Histogram layout_;  // bin-edge math only; its counts stay zero
  std::vector<std::atomic<uint64_t>> bins_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// --- registry ---------------------------------------------------------

// Owns instruments by hierarchical name; handles stay valid for the
// registry's lifetime. Collectors let layers whose counters live in
// their own structs (EngineStats, RunReport, MessageStats) contribute to
// the registry's snapshot without double bookkeeping on their hot
// paths: a collector runs at Collect() time and appends through
// obs/schema.h.
class Registry {
 public:
  // Process-wide instance (the CLI's and benches' default); independent
  // registries can be constructed for tests.
  static Registry& Global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Idempotent by name: the second Get for a name returns the first
  // handle (histogram layout parameters are ignored on rebind).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name, double lo = 1.0,
                                 double hi = 1e6, int bins = 48);

  using CollectorFn = std::function<void(Snapshot*)>;
  void AddCollector(CollectorFn fn);

  // Registered instruments (registration order), then collectors (added
  // order). Safe to call from any thread; the values themselves are
  // exact only at quiesce points, like every relaxed counter in the
  // tree.
  Snapshot Collect() const;
  std::string ToJson() const { return Collect().ToJson(); }

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<LatencyHistogram>>>
      histograms_;
  std::vector<CollectorFn> collectors_;
};

}  // namespace dwrs::obs

#endif  // DWRS_OBS_METRICS_H_
