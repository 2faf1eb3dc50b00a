#include "core/naive.h"

#include <limits>

#include "util/check.h"

namespace dwrs {

NaiveWsworSite::NaiveWsworSite(int sample_size, int site_index,
                               sim::Transport* transport, uint64_t seed)
    : site_index_(site_index),
      transport_(transport),
      rng_(seed),
      local_top_(static_cast<size_t>(sample_size)) {
  DWRS_CHECK(transport != nullptr);
}

void NaiveWsworSite::OnItem(const Item& item) { OnItems(&item, 1); }

void NaiveWsworSite::OnItems(const Item* items, size_t n) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const Item& item = items[i];
    DWRS_CHECK_GT(item.weight, 0.0);
    // The item enters the local top-s iff its key w/t beats the heap
    // minimum, i.e. t < w/min — decided by geometric-skip thinning so
    // losing items (the steady state once the heap is warm) consume no
    // randomness. The joint law of (entered, key | entered) is identical
    // to drawing the key for every item.
    const double bound =
        local_top_.full() ? item.weight / local_top_.MinKey() : kInf;
    if (!filter_.Admit(rng_, bound)) continue;
    const double key = item.weight / filter_.value();
    if (!local_top_.Offer(key, item)) continue;  // fp tie at the minimum
    sim::Payload msg;
    msg.type = kNaiveCandidate;
    msg.a = item.id;
    msg.x = item.weight;
    msg.y = key;
    msg.words = 4;
    transport_->SendToCoordinator(site_index_, msg);
  }
}

void NaiveWsworSite::OnMessage(const sim::Payload& msg) {
  DWRS_CHECK(false) << " naive sites never receive messages, got type "
                    << msg.type;
}

NaiveWsworCoordinator::NaiveWsworCoordinator(int sample_size)
    : sample_(static_cast<size_t>(sample_size)) {}

void NaiveWsworCoordinator::OnMessage(int /*site*/, const sim::Payload& msg) {
  DWRS_CHECK_EQ(msg.type, static_cast<uint32_t>(kNaiveCandidate));
  ++state_version_;
  sample_.Offer(msg.y, Item{msg.a, msg.x});
}

MergeableSample NaiveWsworCoordinator::ShardSample() const {
  MergeableSample out;
  out.kind = SampleKind::kTopKey;
  out.target_size = sample_.capacity();
  out.state_version = state_version_;
  out.entries.reserve(sample_.size());
  for (const auto& e : sample_.entries()) {
    out.entries.push_back(KeyedItem{e.value, e.key});
  }
  return out;
}

std::vector<KeyedItem> NaiveWsworCoordinator::Sample() const {
  std::vector<KeyedItem> out;
  for (const auto& e : sample_.SortedDescending()) {
    out.push_back(KeyedItem{e.value, e.key});
  }
  return out;
}

NaiveDistributedWswor::NaiveDistributedWswor(int num_sites, int sample_size,
                                             uint64_t seed)
    : SimFacade(
          num_sites, seed,
          [&](int i, sim::Transport* transport, uint64_t site_seed) {
            return std::make_unique<NaiveWsworSite>(sample_size, i, transport,
                                                    site_seed);
          },
          [&](sim::Transport*, uint64_t) {
            return std::make_unique<NaiveWsworCoordinator>(sample_size);
          }) {}

}  // namespace dwrs
