// Shard topology: the static assignment of the k global sites to S shard
// coordinators, shared by every sharded backend (sim::ShardedRuntime,
// engine::ShardedEngine, the sharded fault harness) so that a workload
// routes identically everywhere — the precondition for bit-identical
// cross-backend replay.
//
// Sites are partitioned into contiguous blocks: shard j owns global
// sites [Begin(j), Begin(j+1)), with the first num_sites % num_shards
// shards one site larger. Within its shard a site is addressed by its
// LOCAL index (0-based within the block); each shard runs an unmodified
// paper-protocol instance over its local sites.

#ifndef DWRS_STREAM_SHARDING_H_
#define DWRS_STREAM_SHARDING_H_

#include <cstdint>
#include <vector>

#include "stream/workload.h"
#include "util/check.h"

namespace dwrs {

class ShardTopology {
 public:
  ShardTopology(int num_sites, int num_shards)
      : num_sites_(num_sites), num_shards_(num_shards) {
    DWRS_CHECK_GT(num_shards, 0);
    DWRS_CHECK_GE(num_sites, num_shards)
        << " every shard needs at least one site";
  }

  int num_sites() const { return num_sites_; }
  int num_shards() const { return num_shards_; }

  // First global site of `shard`; Begin(num_shards) == num_sites.
  int Begin(int shard) const {
    DWRS_CHECK(shard >= 0 && shard <= num_shards_);
    const int q = num_sites_ / num_shards_;
    const int r = num_sites_ % num_shards_;
    return shard * q + (shard < r ? shard : r);
  }

  int SiteCount(int shard) const { return Begin(shard + 1) - Begin(shard); }

  int ShardOf(int site) const {
    DWRS_CHECK(site >= 0 && site < num_sites_);
    const int q = num_sites_ / num_shards_;
    const int r = num_sites_ % num_shards_;
    const int big = r * (q + 1);  // sites covered by the q+1-sized shards
    return site < big ? site / (q + 1) : r + (site - big) / q;
  }

  int LocalOf(int site) const { return site - Begin(ShardOf(site)); }

  int GlobalOf(int shard, int local) const {
    DWRS_CHECK(local >= 0 && local < SiteCount(shard));
    return Begin(shard) + local;
  }

 private:
  int num_sites_;
  int num_shards_;
};

// Splits a global workload into one per-shard workload with LOCAL site
// indices, preserving arrival order within each shard. Replaying the
// splits shard by shard is transcript-identical to interleaved delivery,
// because shards share no state and every fault/protocol decision is a
// function of per-shard counters only.
std::vector<Workload> SplitByShard(const Workload& workload,
                                   const ShardTopology& topology);

// The protocol config shard `shard` runs: `config` (whose num_sites is
// the global k) with num_sites narrowed to the shard's block, so the
// paper's k becomes the shard's site count and epoch/level bases resolve
// per shard.
template <typename Config>
Config ShardConfig(Config config, const ShardTopology& topology, int shard) {
  config.num_sites = topology.SiteCount(shard);
  return config;
}

// Per-shard seed derivation (splitmix64 mix of base and shard index): the
// jitter seeds of sim::ShardedRuntime's shard networks.
uint64_t ShardSeed(uint64_t base, int shard);

}  // namespace dwrs

#endif  // DWRS_STREAM_SHARDING_H_
