// E20 — Sliding-window extension (paper Section 6 future work): message
// cost and skyline space of the distributed sliding-window weighted SWOR
// as the window length sweeps. No optimality claim exists in the paper;
// this charts what the forwarding protocol actually costs.

#include "bench_util.h"
#include "window/distributed_window.h"

int main() {
  using namespace dwrs;
  using namespace dwrs::bench;

  const int k = 16;
  const int s = 16;
  const uint64_t n = 100000;
  Header("E20: sliding-window weighted SWOR  (k=16, s=16, n=100000)",
         "Section 6 extension: msgs per item and skyline space vs window");
  Row("%-10s %-12s %-12s %-14s %-14s", "window", "messages", "msgs/item",
      "site-skyline", "coord-skyline");
  for (uint64_t window : {256u, 1024u, 4096u, 16384u}) {
    WindowConfig config;
    config.num_sites = k;
    config.sample_size = s;
    config.window = window;
    config.seed = 57;
    DistributedWindowWswor sampler(config);
    const Workload w = UniformWorkload(k, n, 1700 + window);
    sampler.Run(w);
    Row("%-10llu %-12llu %-12.4f %-14zu %-14zu",
        static_cast<unsigned long long>(window),
        static_cast<unsigned long long>(sampler.stats().total_messages()),
        static_cast<double>(sampler.stats().total_messages()) /
            static_cast<double>(n),
        sampler.MaxSiteSkyline(), sampler.CoordinatorSkyline());
  }
  Row("%s", "");
  Row("%s", "expect: messages grow mildly with shrinking windows (more");
  Row("%s", "expiry-driven promotions); skylines stay ~ s*log(window).");
  return 0;
}
