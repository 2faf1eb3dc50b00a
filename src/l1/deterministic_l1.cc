#include "l1/deterministic_l1.h"

#include "util/check.h"

namespace dwrs {

DetL1Site::DetL1Site(double eps, int site_index, sim::Transport* transport)
    : eps_(eps), site_index_(site_index), transport_(transport) {
  DWRS_CHECK(eps > 0.0 && eps < 1.0);
  DWRS_CHECK(transport != nullptr);
}

void DetL1Site::Report() {
  last_reported_ = local_total_;
  report_at_ = local_total_ * (1.0 + eps_);
  sim::Payload msg;
  msg.type = kDetL1Report;
  msg.x = local_total_;
  msg.words = 2;
  transport_->SendToCoordinator(site_index_, msg);
}

void DetL1Site::OnItem(const Item& item) { OnItems(&item, 1); }

void DetL1Site::OnItems(const Item* items, size_t n) {
  // The no-report steady state is one add and one compare per item
  // against the cached (1+eps) trigger point.
  for (size_t i = 0; i < n; ++i) {
    DWRS_CHECK_GT(items[i].weight, 0.0);
    local_total_ += items[i].weight;
    if (last_reported_ > 0.0 && local_total_ < report_at_) continue;
    Report();
  }
}

void DetL1Site::OnMessage(const sim::Payload& msg) {
  DWRS_CHECK(false) << " deterministic L1 sites receive no messages, got "
                    << msg.type;
}

DetL1Coordinator::DetL1Coordinator(int num_sites)
    : last_report_(static_cast<size_t>(num_sites), 0.0) {}

void DetL1Coordinator::OnMessage(int site, const sim::Payload& msg) {
  DWRS_CHECK_EQ(msg.type, static_cast<uint32_t>(kDetL1Report));
  total_ += msg.x - last_report_[static_cast<size_t>(site)];
  last_report_[static_cast<size_t>(site)] = msg.x;
}

DeterministicL1Tracker::DeterministicL1Tracker(int num_sites, double eps,
                                               int delivery_delay)
    : SimFacade(
          num_sites, /*seed=*/0,
          [&](int i, sim::Transport* transport, uint64_t) {
            return std::make_unique<DetL1Site>(eps, i, transport);
          },
          [&](sim::Transport*, uint64_t) {
            return std::make_unique<DetL1Coordinator>(num_sites);
          },
          delivery_delay) {}

}  // namespace dwrs
