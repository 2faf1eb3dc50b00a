// Distributed sampling WITH replacement as s independent single-sample
// "races" (Theorem 1, [14]): per race every item receives an independent
// Uniform(0,1) key — or, for weight w, the MIN of w iid uniforms, which
// realizes the duplication reduction of Corollary 1 without materializing
// duplicates — and the coordinator keeps the key-minimizing item of each
// race. Sites batch the s races into one Binomial draw per item (the
// speedup described in the proof of Corollary 1).
//
// With unit weights this is exactly the unweighted SWR of [14]; the
// weighted facade lives in swr/distributed_weighted_swr.h.

#ifndef DWRS_UNWEIGHTED_DISTRIBUTED_SWR_H_
#define DWRS_UNWEIGHTED_DISTRIBUTED_SWR_H_

#include <cstdint>
#include <vector>

#include "random/rng.h"
#include "sim/deployment.h"

namespace dwrs {

enum SwrMessageType : uint32_t {
  kSwrCandidate = 1,  // site -> coord: (race index, id, weight, key)
  kSwrThreshold = 2,  // coord -> all sites: (tau_hat)
};

struct SlottedSwrConfig {
  int num_sites = 4;
  int sample_size = 16;  // number of independent races s
  uint64_t seed = 1;
  // Threshold shrink base; 0 selects 2 + k/s (Theorem 1's log(2+k/s)).
  double round_base = 0.0;
  int delivery_delay = 0;
  // When false, item weights are ignored (unweighted SWR).
  bool weighted = true;

  double ResolvedRoundBase() const;
};

class SlottedSwrSite : public sim::SiteNode {
 public:
  SlottedSwrSite(const SlottedSwrConfig& config, int site_index,
                 sim::Transport* transport, uint64_t seed);

  void OnItem(const Item& item) override;
  void OnItems(const Item* items, size_t n) override;
  void OnMessage(const sim::Payload& msg) override;

 private:
  const SlottedSwrConfig config_;
  int site_index_;
  sim::Transport* transport_;
  Rng rng_;
  double tau_hat_ = 1.0;
  std::vector<uint64_t> races_;  // reused scratch: zero-alloc hot path
};

class SlottedSwrCoordinator : public sim::CoordinatorNode {
 public:
  SlottedSwrCoordinator(const SlottedSwrConfig& config, sim::Transport* transport);

  void OnMessage(int site, const sim::Payload& msg) override;

  // Mergeable shard summary: one slot per race holding the shard's
  // current race minimum; merging takes the slot-wise minimum, which is
  // exactly the global per-race winner (min of mins). Stamped with
  // StateVersion().
  MergeableSample ShardSample() const override;

  uint64_t StateVersion() const override { return state_version_; }

  // One item per race; empty until the first item arrives.
  std::vector<Item> Sample() const;

  size_t DistinctInSample() const;

 private:
  struct Race {
    double min_key = 2.0;  // > any Uniform(0,1) key
    Item item;
    bool filled = false;
  };

  void MaybeAnnounce();

  const SlottedSwrConfig config_;
  const double base_;
  sim::Transport* transport_;
  std::vector<Race> races_;
  double tau_hat_ = 1.0;
  uint64_t state_version_ = 0;
};

// Facade running the s races over the simulated network.
class DistributedSwr
    : public sim::SimFacade<SlottedSwrSite, SlottedSwrCoordinator> {
 public:
  explicit DistributedSwr(const SlottedSwrConfig& config);

  std::vector<Item> Sample() const { return coordinator().Sample(); }
  size_t DistinctInSample() const { return coordinator().DistinctInSample(); }
};

}  // namespace dwrs

#endif  // DWRS_UNWEIGHTED_DISTRIBUTED_SWR_H_
