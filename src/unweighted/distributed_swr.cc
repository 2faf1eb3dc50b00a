#include "unweighted/distributed_swr.h"

#include <algorithm>
#include <unordered_set>

#include "random/distributions.h"
#include "util/check.h"
#include "util/math_util.h"

namespace dwrs {

double SlottedSwrConfig::ResolvedRoundBase() const {
  if (round_base > 0.0) {
    DWRS_CHECK_GE(round_base, 2.0);
    return round_base;
  }
  return 2.0 + static_cast<double>(num_sites) / sample_size;
}

SlottedSwrSite::SlottedSwrSite(const SlottedSwrConfig& config, int site_index,
                               sim::Transport* transport, uint64_t seed)
    : config_(config), site_index_(site_index), transport_(transport), rng_(seed) {
  DWRS_CHECK(transport != nullptr);
}

void SlottedSwrSite::OnItem(const Item& item) { OnItems(&item, 1); }

void SlottedSwrSite::OnItems(const Item* items, size_t n) {
  const bool weighted = config_.weighted;
  const double tau = tau_hat_;
  const uint64_t s = static_cast<uint64_t>(config_.sample_size);
  for (size_t idx = 0; idx < n; ++idx) {
    const Item& item = items[idx];
    const double w = weighted ? item.weight : 1.0;
    DWRS_CHECK_GE(w, 1.0);
    // Number of races whose key (min of w uniforms) lands below the
    // filter: one Binomial draw replaces s independent Bernoulli(alpha)
    // flips.
    const double alpha = MinUniformBelowProb(w, tau);
    const uint64_t hits = Binomial(rng_, s, alpha);
    if (hits == 0) continue;
    // Choose which races fired: a uniform random subset of size `hits`
    // (partial Fisher-Yates over race indices, in the reused scratch
    // buffer — no allocation on the hot path).
    races_.resize(s);
    for (uint64_t i = 0; i < s; ++i) races_[i] = i;
    for (uint64_t i = 0; i < hits; ++i) {
      const uint64_t j = i + rng_.NextBounded(s - i);
      std::swap(races_[i], races_[j]);
      // Conditional key below the filter.
      const double key = TruncatedMinUniform(rng_, w, tau);
      sim::Payload msg;
      msg.type = kSwrCandidate;
      msg.a = (races_[i] << 40) | (item.id & ((1ull << 40) - 1));
      msg.x = item.weight;
      msg.y = key;
      msg.words = 4;
      transport_->SendToCoordinator(site_index_, msg);
    }
  }
}

void SlottedSwrSite::OnMessage(const sim::Payload& msg) {
  DWRS_CHECK_EQ(msg.type, static_cast<uint32_t>(kSwrThreshold));
  if (msg.x < tau_hat_) tau_hat_ = msg.x;
}

SlottedSwrCoordinator::SlottedSwrCoordinator(const SlottedSwrConfig& config,
                                             sim::Transport* transport)
    : config_(config),
      base_(config.ResolvedRoundBase()),
      transport_(transport),
      races_(static_cast<size_t>(config.sample_size)) {
  DWRS_CHECK(transport != nullptr);
}

void SlottedSwrCoordinator::MaybeAnnounce() {
  // The filter must stay >= every race's current minimum so that no
  // potential winner is dropped at a site.
  double max_min = 0.0;
  for (const Race& race : races_) {
    if (!race.filled) return;  // cannot lower the filter yet
    max_min = std::max(max_min, race.min_key);
  }
  if (max_min >= tau_hat_ / base_) return;
  const int j = FloorLogBase(1.0 / max_min, base_);
  const double next = 1.0 / PowInt(base_, j);
  DWRS_CHECK_GE(next, max_min);
  if (next >= tau_hat_) return;
  tau_hat_ = next;
  sim::Payload out;
  out.type = kSwrThreshold;
  out.x = tau_hat_;
  out.words = 2;
  transport_->Broadcast(out);
}

void SlottedSwrCoordinator::OnMessage(int /*site*/, const sim::Payload& msg) {
  DWRS_CHECK_EQ(msg.type, static_cast<uint32_t>(kSwrCandidate));
  ++state_version_;
  const uint64_t race_index = msg.a >> 40;
  const uint64_t id = msg.a & ((1ull << 40) - 1);
  DWRS_CHECK_LT(race_index, races_.size());
  Race& race = races_[race_index];
  if (msg.y < race.min_key) {
    race.min_key = msg.y;
    race.item = Item{id, msg.x};
    race.filled = true;
    MaybeAnnounce();
  }
}

MergeableSample SlottedSwrCoordinator::ShardSample() const {
  MergeableSample out;
  out.kind = SampleKind::kSlotMin;
  out.target_size = races_.size();
  out.state_version = state_version_;
  out.slots.resize(races_.size());
  for (size_t i = 0; i < races_.size(); ++i) {
    const Race& race = races_[i];
    if (!race.filled) continue;
    out.slots[i] = MergeableSample::Slot{true, race.min_key, race.item};
  }
  return out;
}

std::vector<Item> SlottedSwrCoordinator::Sample() const {
  std::vector<Item> out;
  for (const Race& race : races_) {
    if (race.filled) out.push_back(race.item);
  }
  return out;
}

size_t SlottedSwrCoordinator::DistinctInSample() const {
  std::unordered_set<uint64_t> ids;
  for (const Item& item : Sample()) ids.insert(item.id);
  return ids.size();
}

DistributedSwr::DistributedSwr(const SlottedSwrConfig& config)
    : SimFacade(
          config.num_sites, config.seed,
          [&](int i, sim::Transport* transport, uint64_t seed) {
            return std::make_unique<SlottedSwrSite>(config, i, transport, seed);
          },
          [&](sim::Transport* transport, uint64_t) {
            return std::make_unique<SlottedSwrCoordinator>(config, transport);
          },
          config.delivery_delay) {}

}  // namespace dwrs
