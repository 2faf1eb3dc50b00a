// Sharded facade of the paper's weighted SWOR: S unmodified
// (WsworSite*, WsworCoordinator) protocol instances over disjoint site
// blocks, a step-synchronous sim::ShardedRuntime underneath, and the
// root merge answering global queries exactly.
//
//   ShardedWswor sampler({.num_sites = 8, .sample_size = 32}, /*S=*/2);
//   sampler.Run(workload);          // global site indices
//   auto sample = sampler.Sample(); // exact global weighted SWOR
//
// Seed derivation extends DistributedWswor's: one master RNG draws the k
// site seeds in global site order, then the S coordinator seeds in shard
// order — so with S = 1 every draw, message, and sample is bit-identical
// to the unsharded DistributedWswor (the property pinned by the sharded
// test suite). The same derivation is exposed for engine-backed
// harnesses so sim and engine sharded runs stay replay-equal.

#ifndef DWRS_CORE_SHARDED_SAMPLER_H_
#define DWRS_CORE_SHARDED_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/coordinator.h"
#include "core/site.h"
#include "sim/sharded_runtime.h"
#include "stream/sharding.h"
#include "stream/workload.h"

namespace dwrs {

// Site seeds in global index order followed by per-shard coordinator
// seeds, drawn from one master RNG — S = 1 reproduces DistributedWswor's
// derivation exactly.
struct ShardedWsworSeeds {
  std::vector<uint64_t> site;
  std::vector<uint64_t> coordinator;
};
ShardedWsworSeeds DeriveShardedWsworSeeds(uint64_t seed,
                                          const ShardTopology& topology);

// The protocol config shard `shard` runs: the global config with
// num_sites narrowed to the shard's block (the paper's k becomes the
// shard's site count, so epoch/level bases resolve per shard).
WsworConfig ShardWsworConfig(const WsworConfig& config,
                             const ShardTopology& topology, int shard);

// The constructed endpoint set of a sharded weighted SWOR deployment.
// Owned by the caller; under engine::ShardedEngine the usual teardown
// contract applies (keep it alive until the backend is quiescent or
// shut down).
struct ShardedWsworEndpoints {
  std::vector<std::unique_ptr<WsworSite>> sites;  // global index order
  std::vector<std::unique_ptr<WsworCoordinator>> coordinators;  // per shard
};

// Builds and attaches the full endpoint set against any sharded backend
// exposing topology()/shard_transport()/AttachSite()/
// AttachShardCoordinator() — sim::ShardedRuntime and
// engine::ShardedEngine both do. The ONE definition of the construction
// and seed-derivation contract the S = 1 bit-identity and sim↔engine
// replay properties depend on; facade, benches, and tests all build
// through it.
template <typename Backend>
ShardedWsworEndpoints AttachShardedWswor(const WsworConfig& config,
                                         Backend& backend) {
  const ShardTopology& topo = backend.topology();
  const ShardedWsworSeeds seeds = DeriveShardedWsworSeeds(config.seed, topo);
  ShardedWsworEndpoints out;
  out.sites.reserve(static_cast<size_t>(topo.num_sites()));
  for (int i = 0; i < topo.num_sites(); ++i) {
    const int shard = topo.ShardOf(i);
    out.sites.push_back(std::make_unique<WsworSite>(
        ShardWsworConfig(config, topo, shard), topo.LocalOf(i),
        &backend.shard_transport(shard), seeds.site[static_cast<size_t>(i)]));
    backend.AttachSite(i, out.sites.back().get());
  }
  out.coordinators.reserve(static_cast<size_t>(topo.num_shards()));
  for (int shard = 0; shard < topo.num_shards(); ++shard) {
    out.coordinators.push_back(std::make_unique<WsworCoordinator>(
        ShardWsworConfig(config, topo, shard), &backend.shard_transport(shard),
        seeds.coordinator[static_cast<size_t>(shard)]));
    backend.AttachShardCoordinator(shard, out.coordinators.back().get());
  }
  return out;
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

  const WsworCoordinator& shard_coordinator(int shard) const {
    return *endpoints_.coordinators[static_cast<size_t>(shard)];
  }
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
