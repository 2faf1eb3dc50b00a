#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <tuple>

#include "util/check.h"
#include "util/json.h"

namespace dwrs::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Thread-local ring cache. `generation` ties the cached pointer to one
// Enable() call: a stale cache (from before the latest Enable) is
// ignored and re-registered, and the pointed-to ring of a previous
// generation is retired but never freed, so the stale pointer itself is
// always safe to hold.
struct ThreadRingCache {
  FlightRecorder::Ring* ring = nullptr;
  uint64_t generation = 0;
};
thread_local ThreadRingCache t_ring_cache;

// Fields that define an event's identity for determinism comparisons —
// everything except ts_ns, step and dur_ns (wall clock and batching
// artifacts that legitimately differ across backends).
auto CanonicalKey(const TraceEvent& e) {
  return std::make_tuple(static_cast<uint16_t>(e.type), e.shard, e.site,
                         e.dir, e.msg_type, e.epoch, e.seq, e.a,
                         std::bit_cast<uint64_t>(e.x));
}

}  // namespace

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kItemSpan: return "item_span";
    case EventType::kMsgSend: return "msg_send";
    case EventType::kMsgRecv: return "msg_recv";
    case EventType::kMsgDeliver: return "msg_deliver";
    case EventType::kDupDrop: return "dup_drop";
    case EventType::kStaleEpochDrop: return "stale_epoch_drop";
    case EventType::kGapNack: return "gap_nack";
    case EventType::kThresholdBump: return "threshold_bump";
    case EventType::kBackpressureStall: return "backpressure_stall";
    case EventType::kIngestStall: return "ingest_stall";
    case EventType::kSnapshotPublish: return "snapshot_publish";
    case EventType::kQueryServe: return "query_serve";
    case EventType::kFaultDrop: return "fault_drop";
    case EventType::kFaultDup: return "fault_dup";
    case EventType::kFaultDelay: return "fault_delay";
    case EventType::kCrash: return "crash";
    case EventType::kRestart: return "restart";
    case EventType::kRetransmit: return "retransmit";
    case EventType::kEpochBump: return "epoch_bump";
    case EventType::kResyncSend: return "resync_send";
    case EventType::kSiteScheduled: return "site_scheduled";
    case EventType::kSteal: return "steal";
    case EventType::kWorkerPark: return "worker_park";
    case EventType::kWalAppend: return "wal_append";
    case EventType::kWalFsync: return "wal_fsync";
    case EventType::kCheckpointWrite: return "checkpoint_write";
    case EventType::kRecoveryReplay: return "recovery_replay";
    case EventType::kQueryWait: return "query_wait";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::Get() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Enable(size_t ring_capacity, bool deterministic) {
  DWRS_CHECK_GT(ring_capacity, 0u);
  std::lock_guard<std::mutex> lock(mutex_);
  // Retire (but keep alive) the previous generation's rings: a thread
  // still holding a cached pointer sees its generation mismatch and
  // re-registers before touching anything.
  for (auto& ring : rings_) retired_.push_back(std::move(ring));
  rings_.clear();
  generation_.fetch_add(1, std::memory_order_relaxed);
  ring_capacity_ = ring_capacity;
  deterministic_.store(deterministic, std::memory_order_relaxed);
  epoch_ns_.store(NowNs(), std::memory_order_relaxed);
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

void FlightRecorder::Disable() {
  detail::g_trace_enabled.store(false, std::memory_order_release);
}

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.push_back(std::make_unique<Ring>(ring_capacity_));
  t_ring_cache.ring = rings_.back().get();
  t_ring_cache.generation = generation_.load(std::memory_order_relaxed);
  return t_ring_cache.ring;
}

void Emit(TraceEvent event) {
  if (!TracingEnabled()) return;
  FlightRecorder& recorder = FlightRecorder::Get();
  FlightRecorder::Ring* ring = t_ring_cache.ring;
  if (ring == nullptr ||
      t_ring_cache.generation !=
          recorder.generation_.load(std::memory_order_relaxed)) {
    // First event from this thread this generation: one mutex
    // acquisition, then lock-free forever after.
    ring = recorder.RingForThisThread();
  }
  if (!recorder.deterministic_.load(std::memory_order_relaxed)) {
    event.ts_ns = NowNs() - recorder.epoch_ns_.load(std::memory_order_relaxed);
  }
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  ring->slots[head % ring->capacity] = event;
  ring->head.store(head + 1, std::memory_order_release);
}

std::vector<TraceEvent> FlightRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t cap = ring->capacity;
    const uint64_t first = head > cap ? head - cap : 0;
    for (uint64_t i = first; i < head; ++i) {
      out.push_back(ring->slots[i % cap]);
    }
  }
  return out;
}

uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t cap = ring->capacity;
    if (head > cap) total += head - cap;
  }
  return total;
}

size_t FlightRecorder::ring_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rings_.size();
}

std::string FlightRecorder::ExportChromeTrace() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\": [";
  bool first_event = true;
  char buf[256];
  for (size_t tid = 0; tid < rings_.size(); ++tid) {
    const Ring& ring = *rings_[tid];
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    const uint64_t cap = ring.capacity;
    const uint64_t first = head > cap ? head - cap : 0;
    for (uint64_t i = first; i < head; ++i) {
      const TraceEvent& e = ring.slots[i % cap];
      // Deterministic mode has no wall clock; a per-ring sequence number
      // keeps the viewer's ordering sane.
      const double ts_us = deterministic_.load(std::memory_order_relaxed)
                               ? static_cast<double>(i - first)
                               : static_cast<double>(e.ts_ns) / 1000.0;
      const bool span = e.dur_ns > 0;
      const double dur_us = static_cast<double>(e.dur_ns) / 1000.0;
      if (!first_event) out += ",";
      first_event = false;
      std::snprintf(buf, sizeof(buf),
                    "\n {\"name\": \"%s\", \"ph\": \"%s\", \"pid\": %d, "
                    "\"tid\": %zu, \"ts\": %.3f",
                    EventTypeName(e.type), span ? "X" : "i",
                    static_cast<int>(e.shard), tid, ts_us);
      out += buf;
      if (span) {
        std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f", dur_us);
        out += buf;
      } else {
        out += ", \"s\": \"t\"";
      }
      std::snprintf(
          buf, sizeof(buf),
          ", \"args\": {\"shard\": %d, \"site\": %d, \"dir\": %u, "
          "\"msg_type\": %u, \"seq\": %u, \"epoch\": %u, \"step\": %llu, "
          "\"a\": %llu, \"x\": %s}}",
          static_cast<int>(e.shard), static_cast<int>(e.site),
          static_cast<unsigned>(e.dir), static_cast<unsigned>(e.msg_type),
          e.seq, e.epoch, static_cast<unsigned long long>(e.step),
          static_cast<unsigned long long>(e.a),
          util::JsonNumber(e.x).c_str());
      out += buf;
    }
  }
  out += "\n]}\n";
  return out;
}

std::vector<TraceEvent> CanonicalTranscript(std::vector<TraceEvent> events) {
  // Deterministic-per-seed types only: session, fault and protocol
  // control events. Execution artifacts (spans, stalls, publishes,
  // queries) depend on batching and thread timing and are excluded.
  auto keep = [](const TraceEvent& e) {
    switch (e.type) {
      case EventType::kMsgSend:
      case EventType::kMsgRecv:
      case EventType::kMsgDeliver:
      case EventType::kDupDrop:
      case EventType::kStaleEpochDrop:
      case EventType::kGapNack:
      case EventType::kThresholdBump:
      case EventType::kFaultDrop:
      case EventType::kFaultDup:
      case EventType::kFaultDelay:
      case EventType::kCrash:
      case EventType::kRestart:
      case EventType::kRetransmit:
      case EventType::kEpochBump:
      case EventType::kResyncSend:
        return true;
      default:
        return false;
    }
  };
  events.erase(std::remove_if(events.begin(), events.end(),
                              [&](const TraceEvent& e) { return !keep(e); }),
               events.end());
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return CanonicalKey(a) < CanonicalKey(b);
            });
  return events;
}

bool CanonicalEquals(const TraceEvent& a, const TraceEvent& b) {
  return CanonicalKey(a) == CanonicalKey(b);
}

}  // namespace dwrs::obs
