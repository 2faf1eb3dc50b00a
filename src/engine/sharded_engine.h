// Sharded multi-coordinator topology over the concurrent engine: the k
// sites are partitioned across S shard coordinators, each an unmodified
// engine::Engine — a per-shard work-stealing worker pool of logical
// sites feeding a dedicated shard coordinator thread over the shard's
// own bounded MPSC channel (an auto worker budget is split across the
// shards so the pools together stay within hardware_concurrency) — plus a
// root merge stage (MergedSample) that combines the shard coordinators'
// mergeable summaries into the exact global sample at quiesce points.
//
// Why this scales past the single-coordinator engine: the coordinator
// thread and its one MPSC inbox are the engine's serialization point —
// every upstream protocol message funnels through them. Sharding gives a
// message-heavy deployment S coordinator threads and S channels (k/S
// producers each instead of k), while the shards exchange nothing during
// the stream; only their O(s) summaries meet at query time. That also
// means shards could live in different processes — the summaries are the
// entire cross-shard traffic (see ROADMAP: multi-process transport).
//
// Construction mirrors engine::Engine per shard, through
// sim::DeploySharded (sim/deployment.h): each global site i is built with
// its LOCAL index eng.topology().LocalOf(i) against its shard's
// shard_transport and attached as AttachSite(i, site), and each shard j
// gets a coordinator via AttachShardCoordinator(j, coord):
//
//   ShardedEngine eng({.num_sites = k, .num_shards = S});
//   auto endpoints = AttachShardedWswor(config, eng);  // or DeploySharded
//   eng.Run(workload);                  // global site indices
//   auto sample = eng.MergedSample().TopEntries();
//
// Query legality, teardown, and the single-feeder ingestion contract are
// exactly engine::Engine's (see engine/engine.h), applied per shard.

#ifndef DWRS_ENGINE_SHARDED_ENGINE_H_
#define DWRS_ENGINE_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/engine.h"
#include "stream/sharding.h"

namespace dwrs::engine {

struct ShardedEngineConfig {
  int num_sites = 8;   // global k
  int num_shards = 2;  // S coordinator threads / MPSC channels
  // Per-shard engine template; num_sites is overridden per shard.
  EngineConfig shard;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(const ShardedEngineConfig& config);

  const ShardTopology& topology() const { return topology_; }
  int num_sites() const { return topology_.num_sites(); }
  int num_shards() const { return topology_.num_shards(); }

  // The transport endpoints of shard `shard` are constructed against.
  sim::Transport& shard_transport(int shard) {
    return shard_engine(shard).transport();
  }
  Engine& shard_engine(int shard) { return *shards_[Index(shard)]; }
  const Engine& shard_engine(int shard) const { return *shards_[Index(shard)]; }

  // Non-owning; global site index (node built with the LOCAL index).
  void AttachSite(int site, sim::SiteNode* node);
  void AttachShardCoordinator(int shard, sim::CoordinatorNode* node);

  // Installs shard `shard`'s snapshot-publication hook, invoked on that
  // shard's coordinator thread once per drain pass (see
  // engine/engine.h) — the publication side of the live query path
  // (src/query/). Install before the first Push/Run/Flush.
  void SetShardSnapshotHook(int shard, std::function<void()> hook);

  // Feeder thread only (single producer across all shards, as with
  // engine::Engine::Push).
  void Push(int site, const Item& item);
  void Push(int site, const Item* items, size_t n);

  // Quiesces every shard; afterwards querying endpoints and
  // MergedSample() is legal.
  void Flush();

  // Runs the full global workload and ends with Flush(). An on_step hook
  // forces step-synchronous execution —
  // quiescing the owning shard after every event — which replays
  // sim::ShardedRuntime bit for bit. Otherwise the run is paced as
  // engine::Engine::Run is, by one QuiescePacer for the whole engine: a
  // paced quiesce hands every shard's partial batches to that shard's
  // own pool, waits for all shards, and reads WastedMessages().
  void Run(const Workload& workload,
           const std::function<void(uint64_t)>& on_step = nullptr);

  // Stops and joins all shard worker threads (idempotent).
  void Shutdown();

  // Root merge stage over the attached shard coordinators' summaries.
  MergeableSample MergedSample() const;

  // Traffic summed over shards (quiesce points only); per-shard stats —
  // including per-shard message counts — via shard_engine(j).stats().
  sim::MessageStats AggregateMessageSnapshot() const;
  std::vector<uint64_t> PerShardMessages() const;
  // EngineStats::wasted_messages summed over shards (quiesce points only).
  uint64_t WastedMessages() const;

  // Global events handed off so far (sum of shard step clocks).
  uint64_t steps() const;

 private:
  size_t Index(int shard) const {
    DWRS_CHECK(shard >= 0 && shard < topology_.num_shards());
    return static_cast<size_t>(shard);
  }

  const ShardedEngineConfig config_;
  ShardTopology topology_;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::vector<const sim::CoordinatorNode*> coordinators_;
  QuiescePacer pacer_;  // Run's quiesce interval
};

}  // namespace dwrs::engine

#endif  // DWRS_ENGINE_SHARDED_ENGINE_H_
