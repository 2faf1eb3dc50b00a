// Step-synchronous sharded execution: S independent sim::Runtime
// instances, one per shard coordinator, plus the root merge stage that
// combines the shard coordinators' mergeable summaries into the exact
// global sample. The reference semantics for engine::ShardedEngine —
// a step-synchronous sharded engine run replays this bit for bit.
//
// Endpoints are constructed per shard with LOCAL site indices against
// shard_network(shard) and attached under their GLOBAL indices here;
// each shard runs an unmodified paper-protocol (site, coordinator) pair
// over its block of sites. Shards exchange nothing during the stream —
// only their compact summaries meet, at query time, in MergedSample().

#ifndef DWRS_SIM_SHARDED_RUNTIME_H_
#define DWRS_SIM_SHARDED_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/runtime.h"
#include "stream/sharding.h"
#include "stream/workload.h"

namespace dwrs::sim {

class ShardedRuntime {
 public:
  ShardedRuntime(int num_sites, int num_shards, int delivery_delay = 0,
                 uint64_t jitter_seed = 0);

  const ShardTopology& topology() const { return topology_; }
  int num_sites() const { return topology_.num_sites(); }
  int num_shards() const { return topology_.num_shards(); }

  // The shard's simulated network — the transport endpoints of shard
  // `shard` are constructed against (with local site indices).
  // shard_transport is the backend-agnostic spelling shared with
  // engine::ShardedEngine, so generic endpoint builders (e.g.
  // AttachShardedWswor) work against either backend.
  Network& shard_network(int shard) { return shards_[Index(shard)]->network(); }
  Transport& shard_transport(int shard) { return shard_network(shard); }
  Runtime& shard_runtime(int shard) { return *shards_[Index(shard)]; }
  const Runtime& shard_runtime(int shard) const {
    return *shards_[Index(shard)];
  }

  // Non-owning, global site index; the node must have been built against
  // shard_network(topology().ShardOf(site)) with local index
  // topology().LocalOf(site).
  void AttachSite(int site, SiteNode* node);
  void AttachShardCoordinator(int shard, CoordinatorNode* node);

  // Routes one global stream event to its shard's runtime.
  void Deliver(const WorkloadEvent& event);

  // Delivers all in-flight messages in every shard.
  void Flush();

  // Runs the full (global) workload; `on_step` is invoked after every
  // event with the 1-based global prefix length — query points, at which
  // MergedSample() answers over exactly that prefix.
  void Run(const Workload& workload,
           const std::function<void(uint64_t)>& on_step = nullptr);

  // Root merge stage: the shard coordinators' summaries combined into
  // the exact global sample (sampling/mergeable_sample.h).
  MergeableSample MergedSample() const;

  // Traffic summed over shards; per-shard stats via shard_runtime(j).
  MessageStats AggregateStats() const;

  uint64_t steps() const { return steps_; }

 private:
  size_t Index(int shard) const {
    DWRS_CHECK(shard >= 0 && shard < topology_.num_shards());
    return static_cast<size_t>(shard);
  }

  ShardTopology topology_;
  std::vector<std::unique_ptr<Runtime>> shards_;
  std::vector<const CoordinatorNode*> coordinators_;
  uint64_t steps_ = 0;
};

}  // namespace dwrs::sim

#endif  // DWRS_SIM_SHARDED_RUNTIME_H_
