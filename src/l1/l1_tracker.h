// Distributed L1 (count) tracking via weighted SWOR (Section 5,
// Algorithm "Tracking L1" + Theorem 6).
//
// Every arriving item (e, w) is conceptually duplicated ell = s/(2*eps)
// times and fed to the weighted SWOR sampler P with s = 10 ln(1/delta) /
// eps^2; the coordinator's s-th largest key u then concentrates so that
// W-hat = s * u / ell = (1 +/- eps) W.
//
// Duplication removes heavy hitters without level sets (each copy is at
// most a 1/(2s)-fraction of the duplicated prefix), so the sampler runs
// with withholding disabled. Sites never materialize the ell copies:
// only the copies whose keys beat the epoch threshold matter, and only
// the best s of those can enter the sample, so the site draws the
// smallest exponentials of the batch directly via order-statistic
// spacings and stops at the first one that misses the threshold —
// expected O(1) work per item in the steady state.

#ifndef DWRS_L1_L1_TRACKER_H_
#define DWRS_L1_L1_TRACKER_H_

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/coordinator.h"
#include "random/geometric_skip.h"
#include "random/rng.h"
#include "sim/deployment.h"

namespace dwrs {

struct L1TrackerConfig {
  int num_sites = 4;
  double eps = 0.1;
  double delta = 0.1;
  uint64_t seed = 1;
  int delivery_delay = 0;

  // s = ceil(10 ln(1/delta) / eps^2).
  int SampleSize() const;
  // ell = ceil(s / (2 eps)).
  uint64_t Duplication() const;
};

// Site protocol: batched duplication into the precision sampler.
class L1Site : public sim::SiteNode {
 public:
  L1Site(const L1TrackerConfig& config, int site_index, sim::Transport* transport,
         uint64_t seed);

  void OnItem(const Item& item) override;
  void OnItems(const Item* items, size_t n) override;
  void OnMessage(const sim::Payload& msg) override;
  sim::SiteHotPathCounters HotPathCounters() const override {
    return {filter_.decisions(), filter_.bits_consumed(),
            filter_.skips_taken()};
  }

 private:
  const L1TrackerConfig config_;
  const uint64_t ell_;
  const int max_batch_;  // s: more copies than this can never matter
  int site_index_;
  sim::Transport* transport_;
  Rng rng_;
  // Thins the first (smallest-t) conceptual copy: in the steady state
  // the overwhelmingly common outcome is "none of the ell copies beats
  // the threshold", decided here at O(1) amortized RNG cost.
  GeometricSkipFilter filter_;
  double threshold_ = 0.0;
};

class L1Tracker : public sim::SimFacade<L1Site, WsworCoordinator> {
 public:
  explicit L1Tracker(const L1TrackerConfig& config);

  // W-hat = s * u / ell; 0 before any item arrived.
  double Estimate() const;

  const L1TrackerConfig& config() const { return config_; }

 private:
  L1TrackerConfig config_;
};

// W-hat = s * u / ell given the coordinator's s-th largest key u (0 while
// u == 0). Shared by L1Tracker::Estimate and the fault harness, which
// runs the L1 site/coordinator stack over a faulty transport.
double L1EstimateFromThreshold(const L1TrackerConfig& config, double u);

// The weighted-SWOR coordinator configuration the L1 reduction runs on
// (withholding off — duplication replaces level sets, Section 5). The
// single source of truth for L1Tracker and the fault harness.
WsworConfig L1CoordinatorConfig(const L1TrackerConfig& config);

// Sharded L1: a shard's mergeable summary is its scalar estimate
// W-hat_j = s * u_j / ell over its own site subset, and shard estimates
// compose by SUMMATION — each shard errs by at most eps * W_j on its
// share of the mass, so the sum is a (1 +/- eps) estimate of the global
// W. (The per-shard u is NOT mergeable into a global u: shards duplicate
// independently, so their key populations estimate disjoint masses.)
MergeableSample L1ShardEstimate(const L1TrackerConfig& config,
                                const WsworCoordinator& coordinator);

// Convenience: merge the per-shard summaries and return the summed W-hat.
double ShardedL1Estimate(const L1TrackerConfig& config,
                         const std::vector<const WsworCoordinator*>& shards);

// This work's Theorem 6 bound (up to constants):
// (k/log k + log(1/delta)/eps^2) * log(eps*W).
double Theorem6MessageBound(int num_sites, double eps, double delta,
                            double total_weight);

}  // namespace dwrs

#endif  // DWRS_L1_L1_TRACKER_H_
