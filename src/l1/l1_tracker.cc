#include "l1/l1_tracker.h"

#include <cmath>
#include <limits>

#include "random/distributions.h"
#include "util/check.h"

namespace dwrs {

int L1TrackerConfig::SampleSize() const {
  DWRS_CHECK(eps > 0.0 && eps < 0.5);
  DWRS_CHECK(delta > 0.0 && delta < 1.0);
  return static_cast<int>(
      std::ceil(10.0 * std::log(1.0 / delta) / (eps * eps)));
}

uint64_t L1TrackerConfig::Duplication() const {
  return static_cast<uint64_t>(
      std::ceil(static_cast<double>(SampleSize()) / (2.0 * eps)));
}

L1Site::L1Site(const L1TrackerConfig& config, int site_index,
               sim::Transport* transport, uint64_t seed)
    : config_(config),
      ell_(config.Duplication()),
      max_batch_(config.SampleSize()),
      site_index_(site_index),
      transport_(transport),
      rng_(seed) {
  DWRS_CHECK(transport != nullptr);
  DWRS_CHECK_GE(ell_, static_cast<uint64_t>(max_batch_));
}

void L1Site::OnItem(const Item& item) { OnItems(&item, 1); }

void L1Site::OnItems(const Item* items, size_t n) {
  // Keys of the ell conceptual copies are w/t_1, ..., w/t_ell with t_j iid
  // Exp(1). The largest keys correspond to the smallest t_j, generated
  // ascending via spacings; we stop at the first t >= w/u (its key — and
  // every later one — misses the threshold) or after s copies (anything
  // beyond the batch's own top-s is evicted by its siblings immediately).
  //
  // The first spacing is t_1 = Exp(1)/ell, so "no copy beats the
  // threshold" is exactly "Exp(1) >= ell * w/u" — thinned through the
  // geometric-skip filter so the (steady-state-dominant) all-miss items
  // cost no RNG work. On a hit the filter's conditioned variate IS the
  // first spacing's numerator; later spacings are drawn as before.
  const double threshold = threshold_;
  const double inv_threshold = threshold > 0.0 ? 1.0 / threshold : 0.0;
  const double ell = static_cast<double>(ell_);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t idx = 0; idx < n; ++idx) {
    const Item& item = items[idx];
    DWRS_CHECK_GT(item.weight, 0.0);
    const double bound =
        threshold > 0.0 ? item.weight * inv_threshold : kInf;
    if (!filter_.Admit(rng_, std::isinf(bound) ? kInf : ell * bound)) {
      continue;
    }
    double t = filter_.value() / ell;
    for (int i = 0; i < max_batch_; ++i) {
      if (i > 0) {
        t += Exponential(rng_) /
             static_cast<double>(ell_ - static_cast<uint64_t>(i));
        if (t >= bound) break;
      }
      sim::Payload msg;
      msg.type = kWsworRegular;
      msg.a = item.id;
      msg.x = item.weight;
      msg.y = item.weight / t;
      msg.words = 4;
      transport_->SendToCoordinator(site_index_, msg);
    }
  }
}

void L1Site::OnMessage(const sim::Payload& msg) {
  DWRS_CHECK_EQ(msg.type, static_cast<uint32_t>(kWsworUpdateEpoch));
  if (msg.x > threshold_) threshold_ = msg.x;
}

WsworConfig L1CoordinatorConfig(const L1TrackerConfig& config) {
  WsworConfig out;
  out.num_sites = config.num_sites;
  out.sample_size = config.SampleSize();
  out.seed = config.seed;
  out.withhold_heavy = false;  // duplication replaces level sets (§5)
  out.delivery_delay = config.delivery_delay;
  return out;
}

L1Tracker::L1Tracker(const L1TrackerConfig& config)
    : SimFacade(
          config.num_sites, config.seed,
          [&](int i, sim::Transport* transport, uint64_t seed) {
            return std::make_unique<L1Site>(config, i, transport, seed);
          },
          [&](sim::Transport* transport, uint64_t seed) {
            return std::make_unique<WsworCoordinator>(
                L1CoordinatorConfig(config), transport, seed);
          },
          config.delivery_delay),
      config_(config) {}

double L1Tracker::Estimate() const {
  return L1EstimateFromThreshold(config_, coordinator().Threshold());
}

double L1EstimateFromThreshold(const L1TrackerConfig& config, double u) {
  if (u <= 0.0) return 0.0;
  return static_cast<double>(config.SampleSize()) * u /
         static_cast<double>(config.Duplication());
}

MergeableSample L1ShardEstimate(const L1TrackerConfig& config,
                                const WsworCoordinator& coordinator) {
  MergeableSample out;
  out.kind = SampleKind::kScalarSum;
  out.scalar = L1EstimateFromThreshold(config, coordinator.Threshold());
  return out;
}

double ShardedL1Estimate(const L1TrackerConfig& config,
                         const std::vector<const WsworCoordinator*>& shards) {
  std::vector<MergeableSample> summaries;
  summaries.reserve(shards.size());
  for (const WsworCoordinator* coordinator : shards) {
    DWRS_CHECK(coordinator != nullptr);
    summaries.push_back(L1ShardEstimate(config, *coordinator));
  }
  return MergeShardSamples(summaries).scalar;
}

double Theorem6MessageBound(int num_sites, double eps, double delta,
                            double total_weight) {
  const double k = num_sites;
  const double log_w = std::log(std::max(2.0, eps * total_weight));
  return (k / std::log(std::max(2.0, k)) +
          std::log(1.0 / delta) / (eps * eps)) *
         log_w;
}

}  // namespace dwrs
