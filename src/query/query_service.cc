#include "query/query_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace dwrs::query {

namespace {

// Shared shard-read + merge loop: `read(shard, &snap)` fills the
// positional entry (Read for live queries, ReadAsOf for time travel).
template <typename ReadFn>
void MergeShardReads(const std::vector<const SnapshotPublisher*>& shards,
                     ReadFn&& read, QueryResult* out) {
  out->complete = true;
  out->shards.resize(shards.size());
  std::vector<MergeableSample> summaries;
  summaries.reserve(shards.size());
  for (size_t shard = 0; shard < shards.size(); ++shard) {
    ShardSnapshot& snap = out->shards[shard];
    if (!read(shard, &snap) || snap.sample.kind == SampleKind::kEmpty) {
      // Not published yet (or the coordinator exports no mergeable
      // state): folding the kEmpty identity would silently drop this
      // shard's slice, so report incompleteness instead. The positional
      // entry stays default-initialized (publish_seq == 0).
      out->complete = false;
      continue;
    }
    if (snap.stale) {
      out->any_stale = true;
      out->stale_shards.push_back(static_cast<int>(shard));
    }
    out->l1_estimate += snap.l1_estimate;
    out->messages += snap.messages;
    out->steps += snap.steps;
    summaries.push_back(snap.sample);
  }
  out->merged = MergeShardSamples(summaries);
}

// Process-wide and never reused: a service id tells a thread's cached
// slot pointer apart from one into a service that died at the same
// address, and a reader serial names a thread in every registry.
std::atomic<uint64_t> g_next_service_id{1};
std::atomic<uint64_t> g_next_reader_serial{1};

}  // namespace

QueryService::QueryService(std::vector<const SnapshotPublisher*> shards)
    : shards_(std::move(shards)),
      id_(g_next_service_id.fetch_add(1, std::memory_order_relaxed)) {
  DWRS_CHECK(!shards_.empty());
  for (const SnapshotPublisher* shard : shards_) {
    DWRS_CHECK(shard != nullptr);
  }
}

QueryResult QueryService::Query() const {
  // Timing only when someone observes it: tracing or a histogram. The
  // untimed fast path costs one relaxed load and one null check.
  const bool timed = latency_us_ != nullptr || obs::TracingEnabled();
  std::chrono::steady_clock::time_point start;
  if (timed) start = std::chrono::steady_clock::now();
  QueryResult out;
  MergeShardReads(
      shards_,
      [this](size_t shard, ShardSnapshot* snap) {
        return shards_[shard]->Read(snap);
      },
      &out);
  if (timed) {
    const auto dur_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (latency_us_ != nullptr) {
      latency_us_->Record(static_cast<double>(dur_ns) / 1000.0);
    }
    if (obs::TracingEnabled()) {
      obs::TraceEvent event;
      event.type = obs::EventType::kQueryServe;
      // shards merged into this answer
      event.a = out.shards.size() -
                static_cast<size_t>(std::count_if(
                    out.shards.begin(), out.shards.end(),
                    [](const ShardSnapshot& s) { return s.publish_seq == 0; }));
      event.step = out.steps;
      event.dir = out.any_stale ? 1 : 0;
      event.dur_ns = dur_ns > 0 ? static_cast<uint32_t>(std::min<int64_t>(
                                      dur_ns, UINT32_MAX))
                                : 1;
      obs::Emit(event);
    }
  }
  return out;
}

QueryService::ReaderSlot& QueryService::ThisThreadSlot() const {
  // The fast path: this thread's slot of the service it queried last.
  struct LastSlot {
    uint64_t service_id = 0;
    ReaderSlot* slot = nullptr;
  };
  thread_local LastSlot last;
  if (last.service_id == id_) return *last.slot;
  thread_local const uint64_t serial =
      g_next_reader_serial.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(slots_mutex_);
  ReaderSlot* mine = nullptr;
  for (const std::unique_ptr<ReaderSlot>& slot : slots_) {
    if (slot->owner == serial) mine = slot.get();
  }
  if (mine == nullptr) {
    slots_.push_back(std::make_unique<ReaderSlot>());
    mine = slots_.back().get();
    mine->owner = serial;
  }
  last = LastSlot{id_, mine};
  return *mine;
}

std::shared_ptr<const QueryResult> QueryService::QueryShared() const {
  ReaderSlot& slot = ThisThreadSlot();
  // Revalidate by sequence stamp alone: S cheap probes instead of S full
  // ShardSnapshot copies. The key is the stamps of the snapshots actually
  // merged (coherent per shard by the pin/validate protocol) — NOT a
  // separate probe, so it can never be torn against the result it
  // describes. A probe that leads its ring by one in-flight publish only
  // turns a hit into a miss.
  const QueryResult* cached = slot.result.get();
  bool hit = cached != nullptr;
  for (size_t shard = 0; hit && shard < shards_.size(); ++shard) {
    hit = shards_[shard]->latest_seq() == cached->shards[shard].publish_seq;
  }
  if (hit) {
    // Owner-only count: no read-modify-write, and no other reader writes
    // this line (stats() only reads it).
    slot.hits.store(slot.hits.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  } else {
    if (cached != nullptr) {
      cache_invalidations_.fetch_add(1, std::memory_order_relaxed);
    }
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    slot.result = std::make_shared<const QueryResult>(Query());
  }
  return slot.result;
}

QueryResult QueryService::Query(const QueryOptions& options) const {
  bool waited = false;
  std::chrono::steady_clock::time_point wait_start;
  if (options.min_version > 0) {
    const auto deadline =
        std::chrono::steady_clock::now() + options.max_staleness;
    for (const SnapshotPublisher* shard : shards_) {
      if (shard->latest_state_version() >= options.min_version) continue;
      if (!waited) {
        waited = true;
        wait_start = std::chrono::steady_clock::now();
        slo_waits_.fetch_add(1, std::memory_order_relaxed);
      }
      const auto remaining = deadline - std::chrono::steady_clock::now();
      shard->WaitForStateVersion(
          options.min_version,
          std::chrono::duration_cast<std::chrono::nanoseconds>(remaining));
    }
  }
  QueryResult out = Query();
  if (options.min_version > 0) {
    for (size_t shard = 0; shard < out.shards.size(); ++shard) {
      if (out.shards[shard].state_version < options.min_version) {
        out.version_satisfied = false;
        out.lagging_shards.push_back(static_cast<int>(shard));
      }
    }
    if (!out.version_satisfied) {
      slo_timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    if (waited && obs::TracingEnabled()) {
      const auto wait_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - wait_start)
              .count();
      obs::TraceEvent event;
      event.type = obs::EventType::kQueryWait;
      event.a = options.min_version;
      event.step = out.steps;
      event.dir = out.version_satisfied ? 0 : 1;
      event.dur_ns = wait_ns > 0 ? static_cast<uint32_t>(std::min<int64_t>(
                                       wait_ns, UINT32_MAX))
                                 : 1;
      obs::Emit(event);
    }
  }
  return out;
}

QueryResult QueryService::QueryAsOf(uint64_t max_state_version) const {
  QueryResult out;
  MergeShardReads(
      shards_,
      [this, max_state_version](size_t shard, ShardSnapshot* snap) {
        return shards_[shard]->ReadAsOf(max_state_version, snap);
      },
      &out);
  return out;
}

std::vector<KeyedItem> QueryService::Sample() const {
  return QueryShared()->merged.TopEntries();
}

double QueryService::L1Estimate() const { return QueryShared()->l1_estimate; }

ThresholdedSample QueryService::EstimatorSample() const {
  const std::shared_ptr<const QueryResult> result = QueryShared();
  std::vector<KeyedItem> top = result->merged.TopEntries();
  if (top.size() < result->merged.target_size) {
    // Fewer candidates than s anywhere: no shard has filled its sample,
    // so no threshold was ever announced and every delivered item is in
    // hand — exact-sum mode (tau = 0), nothing peeled off.
    ThresholdedSample out;
    out.top = std::move(top);
    return out;
  }
  // Conditioning on the s-th largest merged key: MakeThresholdedSample
  // peels the last (smallest) entry off as tau, leaving the top s-1 as
  // the estimation sample — every quantity exactly known from the
  // merged summary, no discarded key needed.
  return MakeThresholdedSample(std::move(top));
}

double QueryService::SubsetSum(
    const std::function<bool(const Item&)>& pred) const {
  return EstimateSubsetSum(EstimatorSample(), pred);
}

double QueryService::SubsetCount(
    const std::function<bool(const Item&)>& pred) const {
  return EstimateSubsetCount(EstimatorSample(), pred);
}

double QueryService::TotalWeight() const {
  return EstimateTotalWeight(EstimatorSample());
}

QueryServiceStats QueryService::stats() const {
  QueryServiceStats out;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (const std::unique_ptr<ReaderSlot>& slot : slots_) {
      out.cache_hits += slot->hits.load(std::memory_order_relaxed);
    }
  }
  out.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  out.cache_invalidations =
      cache_invalidations_.load(std::memory_order_relaxed);
  out.snapshot_copies_avoided = out.cache_hits * shards_.size();
  out.slo_waits = slo_waits_.load(std::memory_order_relaxed);
  out.slo_timeouts = slo_timeouts_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace dwrs::query
