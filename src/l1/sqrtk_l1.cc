#include "l1/sqrtk_l1.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dwrs {

double SqrtkL1Site::UnitHazard(double q) {
  return -std::log1p(-std::min(q, 1.0 - 1e-15));
}

SqrtkL1Site::SqrtkL1Site(int site_index, sim::Transport* transport, uint64_t seed)
    : site_index_(site_index), transport_(transport), rng_(seed) {
  DWRS_CHECK(transport != nullptr);
  neg_log1p_q_ = UnitHazard(q_);
}

void SqrtkL1Site::Report() {
  ever_reported_ = true;
  unreported_ = 0.0;
  sim::Payload msg;
  msg.type = kSqrtkReport;
  msg.x = local_total_;
  msg.words = 2;
  transport_->SendToCoordinator(site_index_, msg);
}

void SqrtkL1Site::OnItem(const Item& item) { OnItems(&item, 1); }

void SqrtkL1Site::OnItems(const Item* items, size_t n) {
  const double q = q_;
  const double unit_hazard = neg_log1p_q_;
  const double cap = q < 1.0 ? 3.0 / q : 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Item& item = items[i];
    DWRS_CHECK_GT(item.weight, 0.0);
    local_total_ += item.weight;
    unreported_ += item.weight;
    if (!ever_reported_) {
      // First local item always reported (it may be the global first, and
      // any correct tracker must register it — cf. Theorem 7's argument).
      Report();
      continue;
    }
    // Deterministic cap: never let unreported drift exceed a few expected
    // inter-report gaps (bounds the coordinator's correction bias without
    // changing the message asymptotics).
    if (cap > 0.0 && unreported_ >= cap) {
      Report();
      continue;
    }
    // Report with probability 1 - (1-q)^w, i.e. hazard w * -log(1-q) —
    // the geometric-skip filter makes the (dominant) no-report outcome
    // free of RNG work.
    if (filter_.Admit(rng_, item.weight * unit_hazard)) Report();
  }
}

void SqrtkL1Site::OnMessage(const sim::Payload& msg) {
  DWRS_CHECK_EQ(msg.type, static_cast<uint32_t>(kSqrtkNewPhase));
  if (msg.x < q_) {
    q_ = msg.x;
    neg_log1p_q_ = UnitHazard(q_);
  }
}

SqrtkL1Coordinator::SqrtkL1Coordinator(int num_sites, double eps,
                                       sim::Transport* transport)
    : num_sites_(num_sites),
      eps_(eps),
      transport_(transport),
      last_report_(static_cast<size_t>(num_sites), 0.0),
      active_(static_cast<size_t>(num_sites), 0) {
  DWRS_CHECK(eps > 0.0 && eps < 1.0);
  DWRS_CHECK(transport != nullptr);
}

double SqrtkL1Coordinator::Estimate() const {
  if (q_ >= 1.0) return sum_reports_;
  // Unreported drift per active site is geometric with mean ~(1-q)/q,
  // clamped by the doubling-backbone invariant: a site's unreported
  // weight never exceeds its last reported local total.
  const double mean_gap = (1.0 - q_) / q_;
  double correction = 0.0;
  for (size_t i = 0; i < last_report_.size(); ++i) {
    if (active_[i] != 0) {
      // Expected age of a geometric reporting clock truncated at the
      // site's own observed scale (a site cannot have drifted by much
      // more than it has ever reported).
      const double scale = last_report_[i];
      correction += mean_gap * -std::expm1(-scale / mean_gap);
    }
  }
  return sum_reports_ + correction;
}

void SqrtkL1Coordinator::MaybeAdvancePhase() {
  // Phases are driven by the deterministic lower bound (sum of actual
  // reports), never by the corrected estimate — feeding the correction
  // back into the phase schedule would compound it.
  if (sum_reports_ < 2.0 * scale_) return;
  scale_ = sum_reports_;
  const double next_q = std::min(
      1.0, std::sqrt(static_cast<double>(num_sites_)) / (eps_ * scale_));
  if (next_q >= q_) return;
  q_ = next_q;
  sim::Payload msg;
  msg.type = kSqrtkNewPhase;
  msg.x = q_;
  msg.words = 2;
  transport_->Broadcast(msg);
}

void SqrtkL1Coordinator::OnMessage(int site, const sim::Payload& msg) {
  DWRS_CHECK_EQ(msg.type, static_cast<uint32_t>(kSqrtkReport));
  const size_t idx = static_cast<size_t>(site);
  if (active_[idx] == 0) {
    active_[idx] = 1;
    ++active_count_;
  }
  sum_reports_ += msg.x - last_report_[idx];
  last_report_[idx] = msg.x;
  MaybeAdvancePhase();
}

SqrtkL1Tracker::SqrtkL1Tracker(int num_sites, double eps, uint64_t seed,
                               int delivery_delay)
    : SimFacade(
          num_sites, seed,
          [](int i, sim::Transport* transport, uint64_t site_seed) {
            return std::make_unique<SqrtkL1Site>(i, transport, site_seed);
          },
          [&](sim::Transport* transport, uint64_t) {
            return std::make_unique<SqrtkL1Coordinator>(num_sites, eps,
                                                        transport);
          },
          delivery_delay) {}

double HyzMessageBound(int num_sites, double eps, double total_weight) {
  return std::sqrt(static_cast<double>(num_sites)) / eps *
         std::log(std::max(2.0, total_weight));
}

}  // namespace dwrs
