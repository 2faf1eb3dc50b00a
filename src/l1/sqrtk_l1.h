// Randomized L1 tracking baseline in the style of Huang–Yi–Zhang [23]
// (the O((k + sqrt(k)/eps) log W) row of the Section 5 table).
//
// Phases are driven by the coordinator's lower bound L = sum of the
// exact local totals carried by the reports themselves. Within a phase
// of scale N each site reports its exact local total with probability q
// per unit weight,
// q = min(1, sqrt(k)/(eps*N)): unreported per-site drift is geometric
// with mean ~1/q = eps*N/sqrt(k), so the summed correction has standard
// deviation ~sqrt(k)/q = eps*N. Expected messages per phase:
// q * N ~ sqrt(k)/eps, plus a k-message broadcast per phase. The
// accuracy guarantee holds in [23]'s regime k <= 1/eps^2.

#ifndef DWRS_L1_SQRTK_L1_H_
#define DWRS_L1_SQRTK_L1_H_

#include <cstdint>
#include <vector>

#include "random/geometric_skip.h"
#include "random/rng.h"
#include "sim/deployment.h"

namespace dwrs {

enum SqrtkL1MessageType : uint32_t {
  kSqrtkReport = 1,    // site -> coord: (local total)
  kSqrtkNewPhase = 2,  // coord -> all sites: (q)
};

class SqrtkL1Site : public sim::SiteNode {
 public:
  SqrtkL1Site(int site_index, sim::Transport* transport, uint64_t seed);

  void OnItem(const Item& item) override;
  void OnItems(const Item* items, size_t n) override;
  void OnMessage(const sim::Payload& msg) override;
  sim::SiteHotPathCounters HotPathCounters() const override {
    return {filter_.decisions(), filter_.bits_consumed(),
            filter_.skips_taken()};
  }

 private:
  void Report();

  int site_index_;
  sim::Transport* transport_;
  Rng rng_;
  GeometricSkipFilter filter_;
  // -log(1 - min(q, 1-1e-15)): hazard per unit weight, cached whenever q
  // changes so the per-item report coin is hazard = w * neg_log1p_q_.
  static double UnitHazard(double q);

  double q_ = 1.0;  // per-unit-weight reporting probability
  double neg_log1p_q_ = 0.0;  // set from q_ in the constructor
  double local_total_ = 0.0;
  double unreported_ = 0.0;  // weight since the last report
  bool ever_reported_ = false;
};

class SqrtkL1Coordinator : public sim::CoordinatorNode {
 public:
  SqrtkL1Coordinator(int num_sites, double eps, sim::Transport* transport);

  void OnMessage(int site, const sim::Payload& msg) override;

  // Sum of last reports plus the expected-drift correction.
  double Estimate() const;

  double current_q() const { return q_; }

 private:
  void MaybeAdvancePhase();

  int num_sites_;
  double eps_;
  sim::Transport* transport_;
  std::vector<double> last_report_;
  std::vector<uint8_t> active_;
  double sum_reports_ = 0.0;
  int active_count_ = 0;
  double scale_ = 1.0;  // N
  double q_ = 1.0;
};

class SqrtkL1Tracker
    : public sim::SimFacade<SqrtkL1Site, SqrtkL1Coordinator> {
 public:
  SqrtkL1Tracker(int num_sites, double eps, uint64_t seed,
                 int delivery_delay = 0);

  double Estimate() const { return coordinator().Estimate(); }
};

// [23]'s bound for k <= 1/eps^2 (up to constants): (sqrt(k)/eps) log W.
double HyzMessageBound(int num_sites, double eps, double total_weight);

}  // namespace dwrs

#endif  // DWRS_L1_SQRTK_L1_H_
