#include "core/sharded_sampler.h"

#include "random/rng.h"

namespace dwrs {

ShardedWsworSeeds DeriveShardedWsworSeeds(uint64_t seed,
                                          const ShardTopology& topology) {
  ShardedWsworSeeds out;
  Rng master(seed);
  out.site.reserve(static_cast<size_t>(topology.num_sites()));
  for (int i = 0; i < topology.num_sites(); ++i) {
    out.site.push_back(master.NextU64());
  }
  out.coordinator.reserve(static_cast<size_t>(topology.num_shards()));
  for (int shard = 0; shard < topology.num_shards(); ++shard) {
    out.coordinator.push_back(master.NextU64());
  }
  return out;
}

WsworConfig ShardWsworConfig(const WsworConfig& config,
                             const ShardTopology& topology, int shard) {
  WsworConfig out = config;
  out.num_sites = topology.SiteCount(shard);
  return out;
}

ShardedWswor::ShardedWswor(const WsworConfig& config, int num_shards)
    : runtime_(config.num_sites, num_shards, config.delivery_delay,
               config.jitter_seed) {
  endpoints_ = AttachShardedWswor(config, runtime_);
}

void ShardedWswor::Observe(int site, const Item& item) {
  runtime_.Deliver(WorkloadEvent{site, item});
}

void ShardedWswor::Run(const Workload& workload,
                       const std::function<void(uint64_t)>& on_step) {
  runtime_.Run(workload, on_step);
}

std::vector<KeyedItem> ShardedWswor::Sample() const {
  return runtime_.MergedSample().TopEntries();
}

}  // namespace dwrs
