#include "stream/dynamics.h"

#include <cmath>

#include "util/check.h"

namespace dwrs {

// ---------------------------------------------------------------------
// HotKeyDriftWeights.

HotKeyDriftWeights::HotKeyDriftWeights(std::unique_ptr<WeightGenerator> base,
                                       uint64_t period, uint64_t hot_count,
                                       double heavy_weight,
                                       uint64_t rotate_every)
    : base_(std::move(base)),
      period_(period),
      hot_count_(hot_count),
      heavy_weight_(heavy_weight),
      rotate_every_(rotate_every) {
  DWRS_CHECK(base_ != nullptr);
  DWRS_CHECK_GT(period, 0u);
  DWRS_CHECK(hot_count >= 1 && hot_count <= period);
  DWRS_CHECK_GE(heavy_weight, 1.0);
  DWRS_CHECK_GT(rotate_every, 0u);
}

uint64_t HotKeyDriftWeights::HotOffset(uint64_t phase) const {
  // A fixed odd stride walks the hot window through every residue class
  // (odd is coprime with any period that is a power of two, and visits
  // all classes of any period within period rotations otherwise).
  constexpr uint64_t kStride = 7919;  // 1000th prime
  return (phase * kStride) % period_;
}

bool HotKeyDriftWeights::IsHot(uint64_t index) const {
  const uint64_t phase = index / rotate_every_;
  const uint64_t offset = HotOffset(phase);
  const uint64_t r = (index % period_ + period_ - offset) % period_;
  return r < hot_count_;
}

double HotKeyDriftWeights::WeightAt(uint64_t index, Rng& rng) {
  // The base generator draws for every position, hot or not, so the
  // RNG stream — and hence every cold weight — is independent of the
  // rotation schedule.
  const double base = base_->WeightAt(index, rng);
  return IsHot(index) ? heavy_weight_ : base;
}

// ---------------------------------------------------------------------
// ZipfSweepWeights.

ZipfSweepWeights::ZipfSweepWeights(uint64_t num_ranks,
                                   std::vector<double> thetas,
                                   uint64_t phase_len)
    : num_ranks_(num_ranks), thetas_(std::move(thetas)),
      phase_len_(phase_len) {
  DWRS_CHECK_GE(num_ranks, 1u);
  DWRS_CHECK(!thetas_.empty());
  DWRS_CHECK_GT(phase_len, 0u);
  samplers_.reserve(thetas_.size());
  scales_.reserve(thetas_.size());
  for (double theta : thetas_) {
    DWRS_CHECK_GT(theta, 0.0);
    samplers_.emplace_back(num_ranks_, theta);
    scales_.push_back(std::pow(static_cast<double>(num_ranks_), theta));
  }
}

double ZipfSweepWeights::ThetaAt(uint64_t index) const {
  return thetas_[(index / phase_len_) % thetas_.size()];
}

double ZipfSweepWeights::WeightAt(uint64_t index, Rng& rng) {
  const size_t phase = (index / phase_len_) % thetas_.size();
  const uint64_t rank = samplers_[phase].Next(rng);
  return scales_[phase] *
         std::pow(static_cast<double>(rank), -thetas_[phase]);
}

std::vector<double> ZipfSweepWeights::YcsbThetas() {
  return {0.5, 0.7, 0.9, 0.99};
}

// ---------------------------------------------------------------------
// SkewedSitePartitioner.

SkewedSitePartitioner::SkewedSitePartitioner(double theta) : theta_(theta) {
  DWRS_CHECK_GT(theta, 0.0);
}

int SkewedSitePartitioner::SiteFor(uint64_t /*index*/, int num_sites,
                                   Rng& rng) {
  DWRS_CHECK_GT(num_sites, 0);
  if (!zipf_ || zipf_->n() != static_cast<uint64_t>(num_sites)) {
    DWRS_CHECK(!zipf_) << " SkewedSitePartitioner used with varying k";
    zipf_.emplace(static_cast<uint64_t>(num_sites), theta_);
  }
  return static_cast<int>(zipf_->Next(rng) - 1);
}

std::vector<double> SkewedSitePartitioner::SiteProbabilities(int num_sites,
                                                             double theta) {
  DWRS_CHECK_GT(num_sites, 0);
  const double h =
      ZipfNormalization(static_cast<uint64_t>(num_sites), theta);
  std::vector<double> probs;
  probs.reserve(static_cast<size_t>(num_sites));
  for (int i = 0; i < num_sites; ++i) {
    probs.push_back(std::pow(static_cast<double>(i + 1), -theta) / h);
  }
  return probs;
}

}  // namespace dwrs
