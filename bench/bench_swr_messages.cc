// E18 — Corollary 1: distributed weighted SWR message complexity
// O((k + s log s) log(W) / log(2+k/s)), with the binomial batching
// replacing per-duplicate work.

#include "bench_util.h"

int main() {
  using namespace dwrs;
  using namespace dwrs::bench;

  Header("E18: weighted SWR messages (Corollary 1)",
         "msgs = O((k + s log s) log(W)/log(2+k/s)) despite W >> n duplicates");

  Row("%s", "-- sweep W (k=16, s=16) --");
  Row("%-10s %-12s %-12s %-12s %-10s", "n", "W", "msgs", "cor1-bound",
      "ratio");
  for (uint64_t n : {4000u, 16000u, 64000u}) {
    const Workload w = WorkloadBuilder()
                           .num_sites(16)
                           .num_items(n)
                           .seed(1300 + n)
                           .weights(std::make_unique<UniformWeights>(1.0, 64.0))
                           .integer_weights(true)
                           .partitioner(std::make_unique<RandomPartitioner>())
                           .Build();
    DistributedWeightedSwr swr(16, 16, 52);
    swr.Run(w);
    const double bound = Corollary1MessageBound(16, 16, w.TotalWeight());
    Row("%-10llu %-12.3g %-12llu %-12.0f %-10.2f",
        static_cast<unsigned long long>(n), w.TotalWeight(),
        static_cast<unsigned long long>(swr.stats().total_messages()), bound,
        static_cast<double>(swr.stats().total_messages()) / bound);
  }

  Row("%s", "");
  Row("%s", "-- sweep k (s=16, n=16000) --");
  Row("%-10s %-12s %-12s %-10s", "k", "msgs", "cor1-bound", "ratio");
  for (int k : {4, 16, 64, 256}) {
    const Workload w = WorkloadBuilder()
                           .num_sites(k)
                           .num_items(16000)
                           .seed(1400 + k)
                           .weights(std::make_unique<UniformWeights>(1.0, 64.0))
                           .integer_weights(true)
                           .partitioner(std::make_unique<RandomPartitioner>())
                           .Build();
    DistributedWeightedSwr swr(k, 16, 53);
    swr.Run(w);
    const double bound = Corollary1MessageBound(k, 16, w.TotalWeight());
    Row("%-10d %-12llu %-12.0f %-10.2f", k,
        static_cast<unsigned long long>(swr.stats().total_messages()), bound,
        static_cast<double>(swr.stats().total_messages()) / bound);
  }
  return 0;
}
