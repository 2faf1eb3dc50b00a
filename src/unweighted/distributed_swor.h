// Distributed UNWEIGHTED sampling without replacement — the classic
// algorithm of Cormode–Muthukrishnan–Yi–Zhang [14] / Tirthapura–Woodruff
// [31] / Chung–Tirthapura–Woodruff [11] in its simple key-based form:
// every item gets a Uniform(0,1) key, the coordinator keeps the s
// SMALLEST keys, and sites filter against a geometrically decreasing
// broadcast threshold. Message complexity O(k log(n/s)/log(1+k/s)).
//
// This is an independent implementation (uniform keys, min side) used as
// the substrate the paper builds on and as a cross-check of the weighted
// sampler in the all-weights-equal case.

#ifndef DWRS_UNWEIGHTED_DISTRIBUTED_SWOR_H_
#define DWRS_UNWEIGHTED_DISTRIBUTED_SWOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "random/geometric_skip.h"
#include "random/rng.h"
#include "sampling/top_key_heap.h"
#include "sim/deployment.h"

namespace dwrs {

enum UsworMessageType : uint32_t {
  kUsworCandidate = 1,  // site -> coord: (id, key)
  kUsworThreshold = 2,  // coord -> all sites: (tau_hat)
};

struct UsworConfig {
  int num_sites = 4;
  int sample_size = 16;
  uint64_t seed = 1;
  // Threshold shrink base; 0 selects max{2, k/s} as in the paper.
  double epoch_base = 0.0;
  int delivery_delay = 0;

  double ResolvedEpochBase() const;
};

class UsworSite : public sim::SiteNode {
 public:
  UsworSite(const UsworConfig& config, int site_index, sim::Transport* transport,
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
  double tau_hat_ = 1.0;  // announced filter; keys >= tau_hat are dropped
  // -log(1 - tau_hat): the filter hazard equivalent of "uniform key below
  // tau_hat" (P(Exp(1) < h) = tau_hat); +inf while tau_hat = 1, cached so
  // the hot loop pays no transcendental. All items share this hazard, so
  // the thinning here is literal geometric skipping.
  double hazard_ = std::numeric_limits<double>::infinity();
};

class UsworCoordinator : public sim::CoordinatorNode {
 public:
  UsworCoordinator(const UsworConfig& config, sim::Transport* transport);

  void OnMessage(int site, const sim::Payload& msg) override;

  // Mergeable shard summary. Keys are stored NEGATED (key' = -u), so the
  // max-order kTopKey merge keeps the s SMALLEST uniform keys — the
  // min-key merge this protocol needs. Extract items via
  // UsworSampleFromMerged. Stamped with StateVersion().
  MergeableSample ShardSample() const override;

  uint64_t StateVersion() const override { return state_version_; }
  // Candidates whose key is at or above the announced threshold: sent
  // before the site heard the announcement.
  uint64_t wasted_messages() const override { return wasted_messages_; }

  // Current unweighted SWOR (size min(t, s)).
  std::vector<Item> Sample() const;

  // Resync state for a restarted site: the current threshold (if any was
  // announced). Monotone (thresholds only shrink), so safe to replay.
  std::vector<sim::Payload> ResyncMessages() const;

 private:
  const UsworConfig config_;
  const double base_;
  sim::Transport* transport_;
  // Max-heap on (1 - key) == keep the s smallest keys: store key' = -key.
  TopKeyHeap<Item> smallest_;  // keyed by -u so the heap keeps min keys
  double tau_hat_ = 1.0;
  uint64_t state_version_ = 0;
  uint64_t wasted_messages_ = 0;
};

// Items of a merged unweighted shard summary, ascending by true uniform
// key (the order UsworCoordinator::Sample reports).
std::vector<Item> UsworSampleFromMerged(const MergeableSample& merged);

class DistributedUnweightedSwor
    : public sim::SimFacade<UsworSite, UsworCoordinator> {
 public:
  explicit DistributedUnweightedSwor(const UsworConfig& config);

  std::vector<Item> Sample() const { return coordinator().Sample(); }
};

}  // namespace dwrs

#endif  // DWRS_UNWEIGHTED_DISTRIBUTED_SWOR_H_
