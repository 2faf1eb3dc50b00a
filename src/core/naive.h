// The naive distributed weighted SWOR baseline from Section 1.2: every
// site runs an independent top-s key sampler and forwards each item that
// enters its local top-s; the coordinator keeps the global top-s. Output
// distribution is exact, but message complexity is Θ(k·s·log(W)) instead
// of the additive O~(k + s) of the paper's algorithm.

#ifndef DWRS_CORE_NAIVE_H_
#define DWRS_CORE_NAIVE_H_

#include <cstdint>
#include <vector>

#include "random/geometric_skip.h"
#include "random/rng.h"
#include "sampling/keyed_item.h"
#include "sampling/top_key_heap.h"
#include "sim/deployment.h"

namespace dwrs {

// Message tags of the naive protocol.
enum NaiveMessageType : uint32_t {
  kNaiveCandidate = 1,  // site -> coord: (id, weight, key)
};

class NaiveWsworSite : public sim::SiteNode {
 public:
  // Excluded from the fault harness (src/faults/): the site's local top-s
  // filter cannot be rebuilt from coordinator state after a crash — a
  // restarted naive site would re-forward already-sampled items under
  // fresh keys, silently corrupting the sample.
  static constexpr bool kRequiresReliableTransport = true;

  NaiveWsworSite(int sample_size, int site_index, sim::Transport* transport,
                 uint64_t seed);

  void OnItem(const Item& item) override;
  void OnItems(const Item* items, size_t n) override;
  void OnMessage(const sim::Payload& msg) override;
  sim::SiteHotPathCounters HotPathCounters() const override {
    return {filter_.decisions(), filter_.bits_consumed(),
            filter_.skips_taken()};
  }

 private:
  int site_index_;
  sim::Transport* transport_;
  Rng rng_;
  GeometricSkipFilter filter_;
  TopKeyHeap<Item> local_top_;
};

class NaiveWsworCoordinator : public sim::CoordinatorNode {
 public:
  explicit NaiveWsworCoordinator(int sample_size);

  void OnMessage(int site, const sim::Payload& msg) override;

  // Mergeable shard summary: the plain top-key heap (no level sets) —
  // the naive baseline shards trivially, by the same key argument.
  // Stamped with StateVersion().
  MergeableSample ShardSample() const override;

  uint64_t StateVersion() const override { return state_version_; }

  std::vector<KeyedItem> Sample() const;

 private:
  TopKeyHeap<Item> sample_;
  uint64_t state_version_ = 0;
};

// Facade mirroring DistributedWswor.
class NaiveDistributedWswor
    : public sim::SimFacade<NaiveWsworSite, NaiveWsworCoordinator> {
 public:
  NaiveDistributedWswor(int num_sites, int sample_size, uint64_t seed);

  std::vector<KeyedItem> Sample() const { return coordinator().Sample(); }
};

}  // namespace dwrs

#endif  // DWRS_CORE_NAIVE_H_
