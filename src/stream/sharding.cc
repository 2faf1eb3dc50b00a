#include "stream/sharding.h"

#include "random/rng.h"

namespace dwrs {

std::vector<Workload> SplitByShard(const Workload& workload,
                                   const ShardTopology& topology) {
  DWRS_CHECK_EQ(workload.num_sites(), topology.num_sites());
  std::vector<std::vector<WorkloadEvent>> events(
      static_cast<size_t>(topology.num_shards()));
  for (const WorkloadEvent& event : workload.events()) {
    const int shard = topology.ShardOf(event.site);
    events[static_cast<size_t>(shard)].push_back(
        WorkloadEvent{topology.LocalOf(event.site), event.item});
  }
  std::vector<Workload> out;
  out.reserve(events.size());
  for (int shard = 0; shard < topology.num_shards(); ++shard) {
    out.emplace_back(topology.SiteCount(shard),
                     std::move(events[static_cast<size_t>(shard)]));
  }
  return out;
}

uint64_t ShardSeed(uint64_t base, int shard) {
  // The (shard + 1)-th SplitMix64 output of a stream started at `base`.
  uint64_t state = base + kSplitMix64Gamma * static_cast<uint64_t>(shard);
  return SplitMix64(&state);
}

}  // namespace dwrs
