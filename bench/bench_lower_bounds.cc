// E19 — The lower-bound hard instances (Theorems 5 and 7), measured on
// our algorithms:
//   (a) geometric stream w_i ~ (1+eps)^i: any correct HH tracker must
//       change its output Omega(log(W)/eps) times — we count output
//       changes of the residual-HH tracker;
//   (b) epoch stream (k items of weight k^i per epoch): any correct
//       L1 tracker pays Omega(k log W / log k) messages — we measure all
//       three trackers against that floor.

#include <cmath>
#include <unordered_set>

#include "bench_util.h"
#include "l1/deterministic_l1.h"
#include "l1/l1_tracker.h"
#include "l1/sqrtk_l1.h"

int main() {
  using namespace dwrs;
  using namespace dwrs::bench;

  Header("E19: lower-bound hard streams (Theorems 5 and 7)",
         "sample churn Omega(log(W)/eps); messages Omega(k logW / log k)");

  {
    Row("%s", "-- (a) Theorem 5 stream: w_i = eps(1+eps)^i, eps sweep --");
    Row("%-8s %-8s %-14s %-14s %-12s", "eps", "n", "output-changes",
        "lb~ln(W)/eps", "messages");
    for (double eps : {0.05, 0.1, 0.2}) {
      // Keep (1+eps)^n within double range.
      const uint64_t n = static_cast<uint64_t>(600.0 / eps / 10.0) * 10;
      const Workload w =
          WorkloadBuilder()
              .num_sites(8)
              .num_items(n)
              .seed(1500)
              .weights(std::make_unique<GeometricGrowthWeights>(eps))
              .partitioner(std::make_unique<RoundRobinPartitioner>())
              .Build();
      ResidualHhConfig config;
      config.num_sites = 8;
      config.eps = eps;
      config.delta = 0.1;
      config.seed = 54;
      ResidualHeavyHitterTracker tracker(config);
      uint64_t changes = 0;
      std::unordered_set<uint64_t> previous;
      for (uint64_t i = 0; i < w.size(); ++i) {
        tracker.Observe(w.event(i).site, w.event(i).item);
        std::unordered_set<uint64_t> current;
        for (const Item& item : tracker.HeavyHitters()) current.insert(item.id);
        if (current != previous) {
          ++changes;
          previous = std::move(current);
        }
      }
      const double log_w = static_cast<double>(n) * std::log1p(eps);
      Row("%-8.2f %-8llu %-14llu %-14.0f %-12llu", eps,
          static_cast<unsigned long long>(n),
          static_cast<unsigned long long>(changes), log_w / eps,
          static_cast<unsigned long long>(tracker.stats().total_messages()));
    }
  }

  {
    Row("%s", "");
    Row("%s", "-- (b) Theorem 7 stream: epochs of k items with weight k^i --");
    Row("%-8s %-10s %-12s %-12s %-12s %-14s", "k", "epochs", "det-msgs",
        "hyz-msgs", "ours-msgs", "lb~k*lnW/lnk");
    for (int k : {8, 16, 32}) {
      const int epochs =
          static_cast<int>(std::floor(300.0 / std::log2(k)));  // stay finite
      const uint64_t n = static_cast<uint64_t>(k) * epochs / 4;
      const Workload w =
          WorkloadBuilder()
              .num_sites(k)
              .num_items(n)
              .seed(1600)
              .weights(std::make_unique<EpochPowerWeights>(k, k))
              .partitioner(std::make_unique<BlockPartitioner>(1))
              .Build();
      const double total = w.TotalWeight();
      const double lb = k * std::log(total) / std::log(k);
      DeterministicL1Tracker det(k, 0.25);
      det.Run(w);
      SqrtkL1Tracker hyz(k, 0.25, 55);
      hyz.Run(w);
      L1Tracker ours(L1TrackerConfig{
          .num_sites = k, .eps = 0.25, .delta = 0.2, .seed = 55});
      ours.Run(w);
      Row("%-8d %-10d %-12llu %-12llu %-12llu %-14.0f", k, epochs / 4,
          static_cast<unsigned long long>(det.stats().total_messages()),
          static_cast<unsigned long long>(hyz.stats().total_messages()),
          static_cast<unsigned long long>(ours.stats().total_messages()), lb);
    }
    Row("%s", "");
    Row("%s", "expect: (a) output changes track ln(W)/eps within a small");
    Row("%s", "factor; (b) every tracker's messages sit above ~lb/constant,");
    Row("%s", "confirming the floor is real.");
  }
  return 0;
}
