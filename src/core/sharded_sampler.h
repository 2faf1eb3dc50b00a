// Sharded facade of the paper's weighted SWOR: S unmodified
// (WsworSite*, WsworCoordinator) protocol instances over disjoint site
// blocks, a step-synchronous sim::ShardedRuntime underneath, and the
// root merge answering global queries exactly.
//
//   ShardedWswor sampler({.num_sites = 8, .sample_size = 32}, /*S=*/2);
//   sampler.Run(workload);          // global site indices
//   auto sample = sampler.Sample(); // exact global weighted SWOR
//
// Built through sim::DeploySharded (sim/deployment.h), whose seed rule
// makes S = 1 bit-identical to the unsharded DistributedWswor in every
// draw, message and sample (the property pinned by the sharded test
// suite), and sim and engine sharded runs replay-equal.

#ifndef DWRS_CORE_SHARDED_SAMPLER_H_
#define DWRS_CORE_SHARDED_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/coordinator.h"
#include "core/site.h"
#include "sim/deployment.h"
#include "sim/sharded_runtime.h"
#include "stream/sharding.h"
#include "stream/workload.h"

namespace dwrs {

// The constructed endpoint set of a sharded weighted SWOR deployment,
// owned by the caller (sites in global index order, one coordinator per
// shard). Declared after an engine::ShardedEngine backend, it shuts the
// engine down before any endpoint dies.
using ShardedWsworEndpoints =
    sim::ShardedDeployment<WsworSite, WsworCoordinator>;

// Builds and attaches the full endpoint set against any sharded backend
// exposing topology()/shard_transport()/AttachSite()/
// AttachShardCoordinator() — sim::ShardedRuntime and
// engine::ShardedEngine both do — through sim::DeploySharded.
template <typename Backend>
ShardedWsworEndpoints AttachShardedWswor(const WsworConfig& config,
                                         Backend& backend) {
  const ShardTopology& topo = backend.topology();
  return sim::DeploySharded(
      backend, config.seed,
      [&](int shard, int i, sim::Transport* transport, uint64_t seed) {
        return std::make_unique<WsworSite>(
            ShardConfig(config, topo, shard), i, transport, seed);
      },
      [&](int shard, sim::Transport* transport, uint64_t seed) {
        return std::make_unique<WsworCoordinator>(
            ShardConfig(config, topo, shard), transport, seed);
      });
}

class ShardedWswor {
 public:
  // `config.num_sites` is the global k.
  ShardedWswor(const WsworConfig& config, int num_shards);

  void Observe(int site, const Item& item);  // global site index
  void Run(const Workload& workload,
           const std::function<void(uint64_t)>& on_step = nullptr);

  // Delivers any in-flight messages in every shard (only relevant with
  // delivery_delay), mirroring DistributedWswor::FlushNetwork.
  void FlushNetwork() { runtime_.Flush(); }

  // The exact global weighted SWOR (root merge of shard summaries),
  // descending by key — identical in distribution (and for S = 1,
  // identical bit for bit) to DistributedWswor::Sample.
  std::vector<KeyedItem> Sample() const;
  MergeableSample MergedSample() const { return runtime_.MergedSample(); }

  const ShardTopology& topology() const { return runtime_.topology(); }
  int num_shards() const { return runtime_.num_shards(); }

  // Aggregated traffic; per-shard stats via shard_stats(shard).
  sim::MessageStats stats() const { return runtime_.AggregateStats(); }
  const sim::MessageStats& shard_stats(int shard) const {
    return runtime_.shard_runtime(shard).stats();
  }

 private:
  sim::ShardedRuntime runtime_;
  ShardedWsworEndpoints endpoints_;
};

}  // namespace dwrs

#endif  // DWRS_CORE_SHARDED_SAMPLER_H_
