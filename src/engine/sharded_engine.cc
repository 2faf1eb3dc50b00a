#include "engine/sharded_engine.h"

#include <algorithm>
#include <utility>

namespace dwrs::engine {

ShardedEngine::ShardedEngine(const ShardedEngineConfig& config)
    : config_(config),
      topology_(config.num_sites, config.num_shards),
      coordinators_(static_cast<size_t>(config.num_shards), nullptr) {
  shards_.reserve(static_cast<size_t>(config.num_shards));
  for (int shard = 0; shard < config.num_shards; ++shard) {
    EngineConfig shard_config = config.shard;
    shard_config.num_sites = topology_.SiteCount(shard);
    shard_config.trace_shard = shard;
    if (shard_config.num_workers == 0) {
      // Split the auto worker budget across the shards: S independent
      // engines each sizing a pool for the whole machine would spawn
      // S times hardware_concurrency threads.
      const int total = Scheduler::ResolveWorkerCount(0, config.num_sites);
      shard_config.num_workers = std::max(1, total / config.num_shards);
    }
    shards_.push_back(std::make_unique<Engine>(shard_config));
  }
}

void ShardedEngine::AttachSite(int site, sim::SiteNode* node) {
  const int shard = topology_.ShardOf(site);
  shards_[Index(shard)]->AttachSite(topology_.LocalOf(site), node);
}

void ShardedEngine::AttachShardCoordinator(int shard,
                                           sim::CoordinatorNode* node) {
  DWRS_CHECK(node != nullptr);
  shards_[Index(shard)]->AttachCoordinator(node);
  coordinators_[Index(shard)] = node;
}

void ShardedEngine::SetShardSnapshotHook(int shard,
                                         std::function<void()> hook) {
  shards_[Index(shard)]->SetSnapshotHook(std::move(hook));
}

void ShardedEngine::Push(int site, const Item& item) {
  const int shard = topology_.ShardOf(site);
  shards_[Index(shard)]->Push(topology_.LocalOf(site), item);
}

void ShardedEngine::Push(int site, const Item* items, size_t n) {
  const int shard = topology_.ShardOf(site);
  shards_[Index(shard)]->Push(topology_.LocalOf(site), items, n);
}

void ShardedEngine::Flush() {
  for (auto& shard : shards_) shard->Flush();
}

void ShardedEngine::Run(const Workload& workload,
                        const std::function<void(uint64_t)>& on_step) {
  DWRS_CHECK_EQ(workload.num_sites(), topology_.num_sites());
  const bool step_synchronous = on_step != nullptr;
  // One countdown for the whole engine, as in Engine::Run.
  uint64_t countdown = step_synchronous ? 1 : pacer_.interval();
  for (uint64_t i = 0; i < workload.size(); ++i) {
    const WorkloadEvent& event = workload.event(i);
    Engine& owner = *shards_[Index(topology_.ShardOf(event.site))];
    owner.Push(topology_.LocalOf(event.site), event.item);
    if (--countdown != 0) continue;
    if (step_synchronous) {
      // Only the owning shard can have in-flight work: quiescing it alone
      // reproduces sim::ShardedRuntime's per-event delivery exactly.
      owner.Flush();
      on_step(i + 1);
      countdown = 1;
    } else {
      // Every shard at once, each on its own pool: the shards' partial
      // batches then run in parallel, where caller-runs on this one
      // thread would serialize them. Then wait for each shard.
      for (auto& shard : shards_) shard->HandOffAll(/*caller_runs=*/false);
      for (auto& shard : shards_) shard->WaitQuiesce();
      countdown = pacer_.Next(WastedMessages());
    }
  }
  Flush();
  if (!step_synchronous) pacer_.Next(WastedMessages());
}

void ShardedEngine::Shutdown() {
  for (auto& shard : shards_) shard->Shutdown();
}

MergeableSample ShardedEngine::MergedSample() const {
  return sim::MergeShardCoordinators(coordinators_);
}

sim::MessageStats ShardedEngine::AggregateMessageSnapshot() const {
  sim::MessageStats total;
  for (const auto& shard : shards_) total += shard->stats().MessageSnapshot();
  return total;
}

std::vector<uint64_t> ShardedEngine::PerShardMessages() const {
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard->stats().total_messages());
  }
  return out;
}

uint64_t ShardedEngine::WastedMessages() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->stats().wasted_messages.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ShardedEngine::steps() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->step();
  return total;
}

}  // namespace dwrs::engine
