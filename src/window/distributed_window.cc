#include "window/distributed_window.h"

#include <algorithm>

#include "random/distributions.h"
#include "util/check.h"

namespace dwrs {

WindowSite::WindowSite(const WindowConfig& config, int site_index,
                       sim::Transport* transport, uint64_t seed)
    : config_(config),
      site_index_(site_index),
      transport_(transport),
      rng_(seed),
      skyline_(config.sample_size, config.window) {
  DWRS_CHECK(transport != nullptr);
}

void WindowSite::ForwardNewTopEntries(uint64_t now) {
  for (size_t idx : skyline_.TopIndices(now)) {
    const KeySkyline::Entry& e = skyline_.entries()[idx];
    if (forwarded_.contains(e.item.id)) continue;
    forwarded_.insert(e.item.id);
    DWRS_CHECK_LT(e.item.id, 1ull << 40);
    DWRS_CHECK_LT(e.step, 1ull << 24);
    sim::Payload msg;
    msg.type = kWindowCandidate;
    msg.a = (e.step << 40) | e.item.id;  // arrival step rides along
    msg.x = e.item.weight;
    msg.y = e.key;
    msg.words = 4;
    transport_->SendToCoordinator(site_index_, msg);
  }
  // Forget ids that can never be forwarded again (left the window) to
  // keep the set small.
  if (forwarded_.size() > 4 * config_.window) {
    std::unordered_set<uint64_t> live;
    for (const auto& e : skyline_.entries()) {
      if (forwarded_.contains(e.item.id)) live.insert(e.item.id);
    }
    forwarded_ = std::move(live);
  }
}

void WindowSite::OnItem(const Item& item) { OnItems(&item, 1); }

void WindowSite::OnItems(const Item* items, size_t n) {
  // The round clock is read once per span: every item of the span
  // arrives at the same global step (the step-synchronous simulator — the
  // only backend driving this time-based protocol — delivers one item per
  // step, so spans larger than 1 only occur within a single step).
  const uint64_t now = transport_->step();
  skyline_.ExpireUpTo(now);
  for (size_t i = 0; i < n; ++i) {
    DWRS_CHECK_GT(items[i].weight, 0.0);
    skyline_.Add(now, items[i], items[i].weight / Exponential(rng_));
    // Expiries can promote older entries into the local top-s, and the
    // new arrival may enter it directly; forward anything newly promoted.
    ForwardNewTopEntries(now);
  }
}

void WindowSite::OnRound(uint64_t step) {
  if (skyline_.size() == 0) return;
  // Only act when the oldest entry actually left the window (a promotion
  // can only happen via an expiry).
  if (skyline_.entries().front().step + config_.window > step) return;
  skyline_.ExpireUpTo(step);
  ForwardNewTopEntries(step);
}

void WindowSite::OnMessage(const sim::Payload& msg) {
  DWRS_CHECK(false) << " window sites receive no messages, got type "
                    << msg.type;
}

WindowCoordinator::WindowCoordinator(const WindowConfig& config,
                                     sim::Transport* transport)
    : transport_(transport), skyline_(config.sample_size, config.window) {
  DWRS_CHECK(transport != nullptr);
}

void WindowCoordinator::OnMessage(int /*site*/, const sim::Payload& msg) {
  DWRS_CHECK_EQ(msg.type, static_cast<uint32_t>(kWindowCandidate));
  const uint64_t arrival_step = msg.a >> 40;
  const uint64_t id = msg.a & ((1ull << 40) - 1);
  skyline_.ExpireUpTo(transport_->step());
  // Insert at the item's ORIGINAL arrival step so its expiry is exact
  // even when it was promoted (and forwarded) later.
  skyline_.Add(arrival_step, Item{id, msg.x}, msg.y);
}

std::vector<KeyedItem> WindowCoordinator::Sample() const {
  return skyline_.Sample(transport_->step());
}

DistributedWindowWswor::DistributedWindowWswor(const WindowConfig& config)
    : SimFacade(
          config.num_sites, config.seed,
          [&](int i, sim::Transport* transport, uint64_t seed) {
            return std::make_unique<WindowSite>(config, i, transport, seed);
          },
          [&](sim::Transport* transport, uint64_t) {
            return std::make_unique<WindowCoordinator>(config, transport);
          }) {
  for (const auto& site : endpoints_.sites) runtime_.AttachTicker(site.get());
}

size_t DistributedWindowWswor::MaxSiteSkyline() const {
  size_t max_size = 0;
  for (const auto& site : endpoints_.sites) {
    max_size = std::max(max_size, site->SkylineSize());
  }
  return max_size;
}

}  // namespace dwrs
