// Flight recorder: per-thread lock-free ring buffers of compact trace
// events, drained at quiesce points and exportable as Chrome
// `trace_event` JSON (chrome://tracing, Perfetto).
//
// Design constraints, in order:
//   1. Disabled tracing must cost nothing measurable on the gated hot
//      paths: every instrumentation site is `if (TracingEnabled())
//      Emit(...)` — one relaxed atomic load and a predictable branch,
//      no allocation, no TLS touch. Compiling with -DDWRS_TRACING=OFF
//      turns TracingEnabled() into `false` and the whole site folds
//      away.
//   2. Enabled tracing must not serialize the engine's threads: each
//      thread records into its own fixed-capacity ring (registered on
//      first use per enable-generation, guarded by a mutex taken once
//      per thread per generation). The slot write is plain, the head
//      advance is a release store; rings are overwritten on wrap with a
//      per-ring dropped count, never resized, never freed while the
//      process lives — which is what makes the drain safe without
//      hazard pointers.
//   3. The event stream must be deterministic per seed under the
//      step-synchronous backends: deterministic mode zeroes wall-clock
//      timestamps at record time, and CanonicalTranscript() reduces a
//      collected trace to the protocol-level event multiset (sorted on
//      every payload field, timestamps and thread interleaving
//      excluded) that the sim and engine backends must agree on.
//
// Threading contract: Record/Emit may run from any thread at any time
// while enabled. Enable/Disable/Collect/Reset/ExportChromeTrace are
// quiesce-point operations — the caller must guarantee no thread is
// concurrently recording (engine flushed or shut down, simulator
// between steps). The engine's pushed/done quiesce handshake provides
// the happens-before edge that makes the drained ring contents (and the
// relaxed drop counters) visible, mirroring EngineStats.

#ifndef DWRS_OBS_TRACE_H_
#define DWRS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dwrs::obs {

// Every instrumented occurrence in the stack. Values are stable across
// runs (they participate in the canonical transcript ordering); append
// new types at the end.
enum class EventType : uint16_t {
  kItemSpan = 1,        // engine site worker: one ingestion batch drained
  kMsgSend = 2,         // session/protocol send entering the transport
  kMsgRecv = 3,         // session layer received (pre-dedup/gap check)
  kMsgDeliver = 4,      // coordinator session delivered in order
  kDupDrop = 5,         // duplicate suppressed by the coordinator session
  kStaleEpochDrop = 6,  // pre-crash leftover suppressed
  kGapNack = 7,         // gap detected, nack sent
  kThresholdBump = 8,   // coordinator announced a higher epoch threshold
  kBackpressureStall = 9,  // site worker blocked on the coordinator inbox
  kIngestStall = 10,       // feeder blocked on a full site item queue
  kSnapshotPublish = 11,   // live-query snapshot published
  kQueryServe = 12,        // QueryService::Query served
  kFaultDrop = 13,         // fault layer dropped a message
  kFaultDup = 14,          // fault layer duplicated a message
  kFaultDelay = 15,        // fault layer withheld a message
  kCrash = 16,             // site crashed (volatile state wiped)
  kRestart = 17,           // site restarted (new epoch)
  kRetransmit = 18,        // go-back-N retransmission of an unacked message
  kEpochBump = 19,         // coordinator session detected a site restart
  kResyncSend = 20,        // one resync message sent to a reborn site
  kSiteScheduled = 21,     // scheduler dispatched a logical site (a=worker;
                           // a=num_workers: the flushing thread ran it)
  kSteal = 22,             // worker stole a runnable site (a=thief worker)
  kWorkerPark = 23,        // pool worker parked, nothing runnable (a=worker)
  kWalAppend = 24,         // durability: one record framed into the WAL
  kWalFsync = 25,          // durability: group commit flushed (a=bytes)
  kCheckpointWrite = 26,   // durability: checkpoint handed to the writer
                           // thread, which persists it (a=seq)
  kRecoveryReplay = 27,    // durability: WAL tail read through the
                           // durable step, the records a recovery's
                           // re-feed is checked against (a=records)
  kQueryWait = 28,         // freshness-SLO wait (a=min_version, dir=timeout)
};

const char* EventTypeName(EventType type);

// Fixed-layout record; every field is optional except `type`. The
// convention mirrors sim::Payload: `a` carries an id/count/level, `x` a
// weight/threshold/latency, seq/epoch the reliability stamps.
struct TraceEvent {
  int64_t ts_ns = 0;   // since Enable(); 0 in deterministic mode
  uint64_t a = 0;      // item id, batch size, publish seq, worker id
  double x = 0.0;      // weight, threshold, latency in us
  uint64_t step = 0;   // backend step clock when cheaply available
  uint32_t dur_ns = 0;  // span duration (kItemSpan, kQueryServe)
  uint32_t seq = 0;
  uint32_t epoch = 0;
  // int32: site ids must cover the virtualized-site regime (k = 10^5..
  // 10^6), which overflowed the old int16 field into negative ids.
  int32_t site = -1;  // -1: coordinator/global scope
  EventType type = EventType::kItemSpan;
  uint16_t msg_type = 0;  // sim::Payload::type
  int16_t shard = 0;
  uint8_t dir = 0;  // 0 none, 1 site->coord, 2 coord->site
};

// The record is written per item batch and per message on every hot
// path; keep it one cache line pair.
static_assert(sizeof(TraceEvent) == 56, "TraceEvent grew past 56 bytes");

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

// The disabled-path cost of every instrumentation site. With tracing
// compiled out this is constant-false and the site disappears.
inline bool TracingEnabled() {
#ifdef DWRS_TRACING_DISABLED
  return false;
#else
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
#endif
}

// Records `event` into the calling thread's ring, stamping ts_ns (unless
// deterministic mode). Call only under a TracingEnabled() check — the
// recorder re-checks, but the caller's check is what keeps the disabled
// path free.
void Emit(TraceEvent event);

class FlightRecorder {
 public:
  static FlightRecorder& Get();

  // Quiesce-point control surface (see the threading contract above).
  // `ring_capacity` is per thread, in events; `deterministic` zeroes
  // timestamps so two same-seed step-synchronous runs record identical
  // events. Enable resets previously collected state and starts a new
  // ring generation.
  void Enable(size_t ring_capacity = 1 << 14, bool deterministic = false);
  void Disable();

  bool deterministic() const {
    return deterministic_.load(std::memory_order_relaxed);
  }

  // Drains every ring (oldest surviving event first per ring, rings in
  // registration order) without disturbing them; callable repeatedly.
  std::vector<TraceEvent> Collect() const;

  // Events overwritten on ring wrap since Enable, summed over rings.
  uint64_t dropped() const;
  size_t ring_count() const;

  // The full collected trace as Chrome trace_event JSON
  // ({"traceEvents": [...]}): spans (kItemSpan, kQueryServe) as "X"
  // events, everything else as instants; pid = shard, tid = ring index.
  // In deterministic mode a per-ring event counter stands in for the
  // zeroed wall clock so viewers still order events.
  std::string ExportChromeTrace() const;

  // Implementation detail, public only for the thread-local cache in
  // trace.cc. Not part of the API. The slots are allocated but not
  // initialized: a slot's memory is touched only when an event is written
  // into it, so a ring sized for the worst case costs resident memory
  // only for the events recorded.
  struct Ring {
    explicit Ring(size_t capacity)
        : capacity(capacity),
          slots(std::allocator<TraceEvent>().allocate(capacity)) {}
    ~Ring() { std::allocator<TraceEvent>().deallocate(slots, capacity); }
    Ring(const Ring&) = delete;
    Ring& operator=(const Ring&) = delete;

    const size_t capacity;
    TraceEvent* const slots;  // slot i holds an event once head > i
    // Monotone write index; slot (head % capacity) is written plainly,
    // then head advances with a release store the quiesce-point reader's
    // acquire load pairs with.
    std::atomic<uint64_t> head{0};
  };

 private:
  friend void Emit(TraceEvent event);

  FlightRecorder() = default;
  Ring* RingForThisThread();

  mutable std::mutex mutex_;  // ring registration + control surface
  std::vector<std::unique_ptr<Ring>> rings_;
  // Rings of previous enable-generations: kept alive (never freed) so a
  // thread-local pointer cached by a thread that outlived a Disable can
  // never dangle; the generation check keeps it from being written.
  std::vector<std::unique_ptr<Ring>> retired_;
  // Read by Emit without the mutex (relaxed — recording threads are
  // started, or handshaken with, after Enable by contract).
  std::atomic<uint64_t> generation_{0};
  std::atomic<bool> deterministic_{false};
  std::atomic<int64_t> epoch_ns_{0};  // Enable() wall-clock origin
  size_t ring_capacity_ = 1 << 14;
};

// Protocol-level event multiset for determinism checks: keeps only the
// event types whose occurrence is a function of (seeds, workload) on a
// step-synchronous backend — session and fault-layer events plus
// threshold bumps — and sorts them on every payload field with ts_ns,
// step, dur_ns and thread interleaving excluded. Two same-seed runs on
// the sim and step-synchronous engine backends produce equal canonical
// transcripts.
std::vector<TraceEvent> CanonicalTranscript(std::vector<TraceEvent> events);

// Field-wise equality on the canonical fields (everything except ts_ns,
// step, dur_ns).
bool CanonicalEquals(const TraceEvent& a, const TraceEvent& b);

}  // namespace dwrs::obs

#endif  // DWRS_OBS_TRACE_H_
