// Traffic and execution counters of the concurrent engine — the
// counterpart of sim::MessageStats, extended with engine-specific
// counters (batches, backpressure stalls, quiesce points).
//
// All fields are atomics because they are written from site threads, the
// coordinator thread, and the feeder concurrently. Increments use relaxed
// ordering: exact totals are only read at quiesce points, where the
// engine's pushed/done counter handshake already establishes the
// happens-before edges that make the relaxed writes visible.

#ifndef DWRS_ENGINE_STATS_H_
#define DWRS_ENGINE_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "sim/message.h"

namespace dwrs::engine {

struct EngineStats {
  // Message traffic, mirroring sim::MessageStats field for field.
  std::atomic<uint64_t> site_to_coord{0};
  std::atomic<uint64_t> coord_to_site{0};
  std::atomic<uint64_t> broadcast_events{0};
  std::atomic<uint64_t> words{0};
  std::array<std::atomic<uint64_t>, 32> by_type{};

  // Engine execution counters.
  std::atomic<uint64_t> items_ingested{0};
  std::atomic<uint64_t> batches_ingested{0};
  std::atomic<uint64_t> ingest_stalls{0};    // feeder blocked: item queue full
  std::atomic<uint64_t> upstream_stalls{0};  // site blocked: MPSC channel full
  std::atomic<uint64_t> quiesces{0};

  // Scheduler counters: logical-site dispatches (on pool workers or the
  // flushing thread), the subset the flushing thread ran itself
  // (caller-runs dispatch, see engine/scheduler.h), sites a dry worker
  // stole from a sibling's run queue, times a worker parked on the
  // shared bus with nothing runnable, and ingestion batches dropped
  // because shutdown was requested while the feeder was blocked on a
  // full site ring (nonzero iff item accounting is allowed not to
  // reconcile: items_ingested counts them, no endpoint saw them).
  std::atomic<uint64_t> sites_scheduled{0};
  std::atomic<uint64_t> flush_dispatches{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> worker_parks{0};
  std::atomic<uint64_t> batches_dropped_on_shutdown{0};

  // Batch-buffer pool: drained buffers returned to the feeder's free list
  // vs. hand-offs that had to allocate because the list was empty (cold
  // start). In the steady state recycled tracks batches_ingested and
  // misses stays at ~item_queue_batches.
  std::atomic<uint64_t> batches_recycled{0};
  std::atomic<uint64_t> batch_pool_misses{0};

  // Live-query publication: snapshots this engine's coordinator hook
  // pushed into its SnapshotPublisher ring (one per coordinator drain
  // pass when live queries are enabled, plus the eager initial
  // publish). The cached query path's copies-avoided counter
  // lives with the QueryService (query/query_service.h) — this side
  // counts what the ingestion thread paid.
  std::atomic<uint64_t> snapshot_publishes{0};

  // Site hot-path counters (Proposition 7 accounting), summed over the
  // attached endpoints at each quiesce point — keys_decided threshold
  // decisions consuming key_bits_consumed random bits, of which
  // skips_taken were absorbed by geometric-skip thinning at zero RNG
  // cost. Zero for endpoints that do not export counters.
  std::atomic<uint64_t> keys_decided{0};
  std::atomic<uint64_t> key_bits_consumed{0};
  std::atomic<uint64_t> skips_taken{0};

  // The attached coordinator's wasted_messages() (sim/node.h), folded at
  // every quiesce point (the hot-path counters above at every Flush):
  // arrivals sent on control state the coordinator had already
  // superseded. Run paces its quiesces by it (engine/engine.h); 0
  // step-synchronously.
  std::atomic<uint64_t> wasted_messages{0};

  uint64_t total_messages() const {
    return site_to_coord.load(std::memory_order_relaxed) +
           coord_to_site.load(std::memory_order_relaxed);
  }

  // Snapshot of the traffic counters in the simulator's stats type, so
  // sim-vs-engine comparisons and existing reporting code work unchanged.
  // Only meaningful at a quiesce point.
  sim::MessageStats MessageSnapshot() const;

  std::string ToString() const;
};

}  // namespace dwrs::engine

#endif  // DWRS_ENGINE_STATS_H_
