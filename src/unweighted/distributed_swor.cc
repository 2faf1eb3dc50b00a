#include "unweighted/distributed_swor.h"

#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/math_util.h"

namespace dwrs {

double UsworConfig::ResolvedEpochBase() const {
  if (epoch_base > 0.0) {
    DWRS_CHECK_GE(epoch_base, 2.0);
    return epoch_base;
  }
  return EpochBase(num_sites, sample_size);
}

UsworSite::UsworSite(const UsworConfig& config, int site_index,
                     sim::Transport* transport, uint64_t seed)
    : site_index_(site_index), transport_(transport), rng_(seed) {
  DWRS_CHECK(site_index >= 0 && site_index < config.num_sites);
  DWRS_CHECK(transport != nullptr);
}

void UsworSite::OnItem(const Item& item) { OnItems(&item, 1); }

void UsworSite::OnItems(const Item* items, size_t n) {
  // A uniform key lands below tau_hat iff Exp(1) < -log(1 - tau_hat), so
  // the per-item coin is run through the geometric-skip filter: the gap
  // between sends is Geometric(tau_hat) and the items in between cost no
  // RNG work. On a hit, mapping the conditioned exponential through
  // 1 - e^{-t} recovers the key's conditional law Uniform(0, tau_hat).
  const double tau = tau_hat_;
  const double hazard = hazard_;
  for (size_t i = 0; i < n; ++i) {
    if (!filter_.Admit(rng_, hazard)) continue;
    double key = -std::expm1(-filter_.value());
    if (key >= tau) key = std::nextafter(tau, 0.0);  // fp agreement guard
    if (key <= 0.0) key = std::numeric_limits<double>::min();
    sim::Payload msg;
    msg.type = kUsworCandidate;
    msg.a = items[i].id;
    msg.x = items[i].weight;  // carried through for interface parity
    msg.y = key;
    msg.words = 3;
    transport_->SendToCoordinator(site_index_, msg);
  }
}

void UsworSite::OnMessage(const sim::Payload& msg) {
  DWRS_CHECK_EQ(msg.type, static_cast<uint32_t>(kUsworThreshold));
  // Thresholds only shrink; ignore stale announcements.
  if (msg.x < tau_hat_) {
    tau_hat_ = msg.x;
    hazard_ = msg.x < 1.0 ? -std::log1p(-msg.x)
                          : std::numeric_limits<double>::infinity();
  }
}

UsworCoordinator::UsworCoordinator(const UsworConfig& config,
                                   sim::Transport* transport)
    : config_(config),
      base_(config.ResolvedEpochBase()),
      transport_(transport),
      smallest_(static_cast<size_t>(config.sample_size)) {
  DWRS_CHECK(transport != nullptr);
}

void UsworCoordinator::OnMessage(int /*site*/, const sim::Payload& msg) {
  DWRS_CHECK_EQ(msg.type, static_cast<uint32_t>(kUsworCandidate));
  ++state_version_;
  if (msg.y >= tau_hat_) ++wasted_messages_;
  // Keep the s smallest uniform keys by storing negated keys in the
  // top-key (max side) heap.
  smallest_.Offer(-msg.y, Item{msg.a, msg.x});
  if (!smallest_.full()) return;
  const double tau = -smallest_.MinKey();  // s-th smallest key
  // Announce the next power r^-j with r^-j >= tau when it shrank below
  // the previous announcement by at least a factor of r.
  if (tau >= tau_hat_ / base_) return;
  const int j = FloorLogBase(1.0 / tau, base_);
  const double next = 1.0 / PowInt(base_, j);
  DWRS_CHECK_GE(next, tau);
  if (next >= tau_hat_) return;
  tau_hat_ = next;
  sim::Payload out;
  out.type = kUsworThreshold;
  out.x = tau_hat_;
  out.words = 2;
  transport_->Broadcast(out);
}

std::vector<sim::Payload> UsworCoordinator::ResyncMessages() const {
  std::vector<sim::Payload> out;
  if (tau_hat_ < 1.0) {
    sim::Payload msg;
    msg.type = kUsworThreshold;
    msg.x = tau_hat_;
    msg.words = 2;
    out.push_back(msg);
  }
  return out;
}

std::vector<Item> UsworCoordinator::Sample() const {
  std::vector<Item> out;
  for (const auto& e : smallest_.SortedDescending()) out.push_back(e.value);
  return out;
}

MergeableSample UsworCoordinator::ShardSample() const {
  MergeableSample out;
  out.kind = SampleKind::kTopKey;
  out.target_size = static_cast<size_t>(config_.sample_size);
  out.state_version = state_version_;
  out.entries.reserve(smallest_.size());
  // Stored keys are already negated uniforms; exporting them unchanged
  // makes the max-order merge a min-key merge on the true keys.
  for (const auto& e : smallest_.entries()) {
    out.entries.push_back(KeyedItem{e.value, e.key});
  }
  return out;
}

std::vector<Item> UsworSampleFromMerged(const MergeableSample& merged) {
  std::vector<Item> out;
  // TopEntries sorts stored (negated) keys descending = true keys
  // ascending, matching UsworCoordinator::Sample's order.
  for (const KeyedItem& ki : merged.TopEntries()) out.push_back(ki.item);
  return out;
}

DistributedUnweightedSwor::DistributedUnweightedSwor(const UsworConfig& config)
    : SimFacade(
          config.num_sites, config.seed,
          [&](int i, sim::Transport* transport, uint64_t seed) {
            return std::make_unique<UsworSite>(config, i, transport, seed);
          },
          [&](sim::Transport* transport, uint64_t) {
            return std::make_unique<UsworCoordinator>(config, transport);
          },
          config.delivery_delay) {}

}  // namespace dwrs
