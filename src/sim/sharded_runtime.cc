#include "sim/sharded_runtime.h"

namespace dwrs::sim {

ShardedRuntime::ShardedRuntime(int num_sites, int num_shards,
                               int delivery_delay, uint64_t jitter_seed)
    : topology_(num_sites, num_shards),
      coordinators_(static_cast<size_t>(num_shards), nullptr) {
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int shard = 0; shard < num_shards; ++shard) {
    // Shard 0 takes the caller's jitter seed raw — it IS the unsharded
    // instance when S = 1, preserving bit-identity with sim::Runtime
    // even under a jittered network; later shards remix by index so
    // jittered shards do not replay each other's delay sequence.
    shards_.push_back(std::make_unique<Runtime>(
        topology_.SiteCount(shard), delivery_delay,
        shard == 0 ? jitter_seed : ShardSeed(jitter_seed, shard)));
  }
}

void ShardedRuntime::AttachSite(int site, SiteNode* node) {
  const int shard = topology_.ShardOf(site);
  shards_[Index(shard)]->AttachSite(topology_.LocalOf(site), node);
}

void ShardedRuntime::AttachShardCoordinator(int shard, CoordinatorNode* node) {
  DWRS_CHECK(node != nullptr);
  shards_[Index(shard)]->AttachCoordinator(node);
  coordinators_[Index(shard)] = node;
}

void ShardedRuntime::Deliver(const WorkloadEvent& event) {
  const int shard = topology_.ShardOf(event.site);
  ++steps_;
  shards_[Index(shard)]->Deliver(
      WorkloadEvent{topology_.LocalOf(event.site), event.item});
}

void ShardedRuntime::Flush() {
  for (auto& shard : shards_) shard->Flush();
}

void ShardedRuntime::Run(const Workload& workload,
                         const std::function<void(uint64_t)>& on_step) {
  DWRS_CHECK_EQ(workload.num_sites(), topology_.num_sites());
  for (uint64_t i = 0; i < workload.size(); ++i) {
    Deliver(workload.event(i));
    if (on_step) on_step(i + 1);
  }
}

MergeableSample ShardedRuntime::MergedSample() const {
  return MergeShardCoordinators(coordinators_);
}

MessageStats ShardedRuntime::AggregateStats() const {
  MessageStats total;
  for (const auto& shard : shards_) total += shard->stats();
  return total;
}

}  // namespace dwrs::sim
