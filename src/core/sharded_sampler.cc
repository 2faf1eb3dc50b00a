#include "core/sharded_sampler.h"

namespace dwrs {

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
