// Deterministic L1 tracking baseline ([14] + folklore, the
// O((k/eps) log W) row of the Section 5 table): each site reports its
// exact local total whenever it grows by a (1+eps) factor since the last
// report; the coordinator sums the last reports. Zero failure
// probability, error at most eps relative, k log(W)/eps messages.

#ifndef DWRS_L1_DETERMINISTIC_L1_H_
#define DWRS_L1_DETERMINISTIC_L1_H_

#include <cstdint>
#include <vector>

#include "sim/deployment.h"

namespace dwrs {

enum DetL1MessageType : uint32_t {
  kDetL1Report = 1,  // site -> coord: (local total)
};

class DetL1Site : public sim::SiteNode {
 public:
  DetL1Site(double eps, int site_index, sim::Transport* transport);

  void OnItem(const Item& item) override;
  void OnItems(const Item* items, size_t n) override;
  void OnMessage(const sim::Payload& msg) override;

 private:
  void Report();

  double eps_;
  int site_index_;
  sim::Transport* transport_;
  double local_total_ = 0.0;
  double last_reported_ = 0.0;
  double report_at_ = 0.0;  // cached last_reported_ * (1 + eps_)
};

class DetL1Coordinator : public sim::CoordinatorNode {
 public:
  explicit DetL1Coordinator(int num_sites);

  void OnMessage(int site, const sim::Payload& msg) override;

  double Estimate() const { return total_; }

 private:
  std::vector<double> last_report_;
  double total_ = 0.0;
};

class DeterministicL1Tracker
    : public sim::SimFacade<DetL1Site, DetL1Coordinator> {
 public:
  DeterministicL1Tracker(int num_sites, double eps, int delivery_delay = 0);

  double Estimate() const { return coordinator().Estimate(); }
};

}  // namespace dwrs

#endif  // DWRS_L1_DETERMINISTIC_L1_H_
