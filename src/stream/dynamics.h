// Temporal dynamics for the scenario suite: weight generators whose law
// changes over the stream (hot-key drift, YCSB-style Zipf skew sweeps)
// and a Zipf-skewed item->site partitioner. These compose with the
// static generators/partitioners library (generators.h, partitioners.h)
// through the same interfaces, so every existing harness can run a
// dynamic stream unchanged — the scenario layer (scenario.h) packages
// the combinations.

#ifndef DWRS_STREAM_DYNAMICS_H_
#define DWRS_STREAM_DYNAMICS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "random/distributions.h"
#include "random/rng.h"
#include "stream/generators.h"
#include "stream/partitioners.h"

namespace dwrs {

// A base generator plus a rotating heavy residue class: the stream is
// divided into phases of `rotate_every` items, and during phase p the
// positions whose index mod `period` falls in the phase's hot window
// (`hot_count` residues, rotating by a fixed odd stride each phase)
// carry `heavy_weight`; everything else draws from the base generator.
// Models a working set whose heavy keys drift over time — the dynamic
// none of the static skewed generators exercise: every rotation forces
// the coordinator's level sets to absorb a fresh heavy cohort.
class HotKeyDriftWeights : public WeightGenerator {
 public:
  HotKeyDriftWeights(std::unique_ptr<WeightGenerator> base, uint64_t period,
                     uint64_t hot_count, double heavy_weight,
                     uint64_t rotate_every);

  double WeightAt(uint64_t index, Rng& rng) override;

  // True iff `index` is in the hot window of its phase (pure function of
  // the index — the test surface for the rotation schedule).
  bool IsHot(uint64_t index) const;
  // First hot residue of phase `phase` (mod period).
  uint64_t HotOffset(uint64_t phase) const;

 private:
  std::unique_ptr<WeightGenerator> base_;
  uint64_t period_;
  uint64_t hot_count_;
  double heavy_weight_;
  uint64_t rotate_every_;
};

// YCSB-spirit skew sweep (Cooper et al., SoCC'10; Gray et al. SIGMOD'94
// generator idiom): consecutive phases of `phase_len` items draw ranks
// Zipf(theta_p) over [1, num_ranks], cycling through the theta schedule
// — the load/run-phase structure of the classic zipfian workload
// drivers, with theta in {0.5, 0.7, 0.9, 0.99} as the default sweep.
// Weight = rank^-theta_p scaled so the minimum weight is 1 (the
// ZipfWeights convention, applied per phase).
class ZipfSweepWeights : public WeightGenerator {
 public:
  ZipfSweepWeights(uint64_t num_ranks, std::vector<double> thetas,
                   uint64_t phase_len);

  double WeightAt(uint64_t index, Rng& rng) override;

  // The theta governing position `index`.
  double ThetaAt(uint64_t index) const;

  // {0.5, 0.7, 0.9, 0.99} — the auto_gen.sh skewness schedule.
  static std::vector<double> YcsbThetas();

 private:
  uint64_t num_ranks_;
  std::vector<double> thetas_;
  uint64_t phase_len_;
  std::vector<ZipfSampler> samplers_;  // one per theta
  std::vector<double> scales_;
};

// Zipf-distributed item->site mapping: item at any position lands on
// site (rank - 1) with rank ~ Zipf(theta) over [1, num_sites] — site 0
// is the hottest. The per-site load imbalance the paper's adversary is
// allowed to choose, in its statistically-typical (rather than
// worst-case-degenerate) form. The sampler is built lazily on the first
// call because num_sites is a call-site parameter; all calls must agree.
class SkewedSitePartitioner : public Partitioner {
 public:
  explicit SkewedSitePartitioner(double theta);

  int SiteFor(uint64_t index, int num_sites, Rng& rng) override;

  // Exact ownership fractions: p_i = (i+1)^-theta / H_{k,theta} — the
  // chi-square reference for the ownership tests, backed by the shared
  // ZipfNormalization cache.
  static std::vector<double> SiteProbabilities(int num_sites, double theta);

 private:
  double theta_;
  std::optional<ZipfSampler> zipf_;
};

}  // namespace dwrs

#endif  // DWRS_STREAM_DYNAMICS_H_
