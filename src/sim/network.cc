#include "sim/network.h"

#include "random/rng.h"
#include "util/check.h"

namespace dwrs::sim {

Network::Network(int num_sites, int delivery_delay, uint64_t jitter_seed)
    : num_sites_(num_sites),
      delivery_delay_(delivery_delay),
      jitter_state_(jitter_seed),
      channel_floor_(2 * static_cast<size_t>(num_sites), 0),
      up_(num_sites),
      down_(num_sites) {
  DWRS_CHECK_GT(num_sites, 0);
  DWRS_CHECK_GE(delivery_delay, 0);
}

uint64_t Network::NextDueStep(size_t channel) {
  uint64_t delay = static_cast<uint64_t>(delivery_delay_);
  if (jitter_state_ != 0 && delivery_delay_ > 0) {
    // A SplitMix64 draw, uniform in [0, delivery_delay].
    delay = SplitMix64(&jitter_state_) %
            (static_cast<uint64_t>(delivery_delay_) + 1);
  }
  uint64_t due = step_ + delay;
  // FIFO per channel: never due earlier than the previous message.
  if (due < channel_floor_[channel]) due = channel_floor_[channel];
  channel_floor_[channel] = due;
  return due;
}

void Network::Account(const Payload& msg, bool upstream) {
  if (upstream) {
    ++stats_.site_to_coord;
  } else {
    ++stats_.coord_to_site;
  }
  stats_.words += msg.words;
  if (msg.type < stats_.by_type.size()) ++stats_.by_type[msg.type];
}

void Network::SendToCoordinator(int site, const Payload& msg) {
  DWRS_CHECK(site >= 0 && site < num_sites_);
  Account(msg, /*upstream=*/true);
  up_[site].push_back(
      Envelope{seq_++, NextDueStep(static_cast<size_t>(site)), msg});
  ++pending_;
}

void Network::SendToSite(int site, const Payload& msg) {
  DWRS_CHECK(site >= 0 && site < num_sites_);
  Account(msg, /*upstream=*/false);
  down_[site].push_back(Envelope{
      seq_++,
      NextDueStep(static_cast<size_t>(num_sites_) + static_cast<size_t>(site)),
      msg});
  ++pending_;
}

void Network::Broadcast(const Payload& msg) {
  ++stats_.broadcast_events;
  for (int i = 0; i < num_sites_; ++i) SendToSite(i, msg);
}

bool Network::PopDue(Delivery* out, bool force) {
  // Find the globally oldest due envelope across channels; FIFO order is
  // preserved per channel, and the global sequence number makes delivery
  // deterministic.
  const Envelope* best = nullptr;
  bool best_up = false;
  int best_site = -1;
  auto consider = [&](const std::deque<Envelope>& q, bool up, int site) {
    if (q.empty()) return;
    const Envelope& e = q.front();
    if (!force && e.due_step > step_) return;
    if (best == nullptr || e.seq < best->seq) {
      best = &e;
      best_up = up;
      best_site = site;
    }
  };
  for (int i = 0; i < num_sites_; ++i) {
    consider(up_[i], true, i);
    consider(down_[i], false, i);
  }
  if (best == nullptr) return false;
  out->to_coordinator = best_up;
  out->site = best_site;
  out->msg = best->msg;
  if (best_up) {
    up_[best_site].pop_front();
  } else {
    down_[best_site].pop_front();
  }
  --pending_;
  return true;
}

}  // namespace dwrs::sim
