// Wiring the live query path into the sharded backends.
//
// Engine (the production path): EnableWsworLiveQueries installs a
// coordinator-thread hook on every shard of an engine::ShardedEngine
// that captures and publishes the shard's snapshot once per coordinator
// drain pass — shard-local quiesce points — and publishes each shard's
// initial (empty) state eagerly so readers always find a snapshot. The
// returned LiveShardPublishers owns the per-shard publishers; build a
// QueryService over views() and query from any thread while ingestion
// runs.
//
// Simulator (the step-synchronous reference): PublishWsworSnapshots
// captures and publishes each shard of a sim::ShardedRuntime whose
// state advanced since its last publish — call it from Run's on_step
// hook (and once before the run for the initial state). At every step
// boundary the reference's latest snapshot per shard is then exactly
// the engine's (samples, thresholds, state versions, steps, and message
// stats alike; only publish_seq may differ, since the engine publishes
// once per drain pass and the reference once per changed step) — the
// bit-for-bit replay property pinned by tests/query_test.cc.

#ifndef DWRS_QUERY_LIVE_H_
#define DWRS_QUERY_LIVE_H_

#include <memory>
#include <vector>

#include "core/sharded_sampler.h"
#include "engine/sharded_engine.h"
#include "query/snapshot.h"
#include "sim/sharded_runtime.h"

namespace dwrs::query {

// Default snapshot-ring depth for live deployments: deep enough that
// QueryAsOf can reach back across a burst of publishes, shallow enough
// that the per-shard node pool stays a few cache lines of pointers.
inline constexpr int kDefaultRingDepth = 8;

// Owns one SnapshotPublisher per shard. Outlive every QueryService (and
// every engine whose hooks publish into it) built over views().
class LiveShardPublishers {
 public:
  explicit LiveShardPublishers(int num_shards,
                               int ring_depth = kDefaultRingDepth);

  int num_shards() const { return static_cast<int>(publishers_.size()); }
  SnapshotPublisher& shard(int j) { return *publishers_[Index(j)]; }
  const SnapshotPublisher& shard(int j) const { return *publishers_[Index(j)]; }

  // Non-owning views in shard order — the QueryService constructor's
  // input.
  std::vector<const SnapshotPublisher*> views() const;

 private:
  size_t Index(int j) const;
  std::vector<std::unique_ptr<SnapshotPublisher>> publishers_;
};

// Installs the per-shard engine hooks (must run before the engine's
// first Push/Run/Flush) and publishes every shard's initial state. The
// endpoints and the returned publishers must outlive the engine's
// threads; the usual teardown order (publishers before service reads
// stop, engine shut down or quiescent before endpoints die) applies.
// Each hook also counts its publishes in the shard engine's
// EngineStats::snapshot_publishes. ring_depth bounds how far back
// QueryAsOf can reach on each shard.
std::unique_ptr<LiveShardPublishers> EnableWsworLiveQueries(
    engine::ShardedEngine& eng, const ShardedWsworEndpoints& endpoints,
    int ring_depth = kDefaultRingDepth);

// Step-synchronous reference publication: capture + publish all shards
// of the simulator backend. Cheap (O(S * s)); call per step.
void PublishWsworSnapshots(const sim::ShardedRuntime& runtime,
                           const ShardedWsworEndpoints& endpoints,
                           LiveShardPublishers& publishers);

}  // namespace dwrs::query

#endif  // DWRS_QUERY_LIVE_H_
