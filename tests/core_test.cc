#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "core/coordinator.h"
#include "core/level_sets.h"
#include "core/site.h"
#include "core/naive.h"
#include "core/sampler.h"
#include "hh/misra_gries.h"
#include "l1/deterministic_l1.h"
#include "l1/l1_tracker.h"
#include "l1/sqrtk_l1.h"
#include "stats/chi_square.h"
#include "stream/workload.h"
#include "test_util.h"
#include "unweighted/distributed_swor.h"
#include "unweighted/distributed_swr.h"
#include "util/math_util.h"
#include "window/distributed_window.h"

namespace dwrs {
namespace {

Workload SmallWeighted(const std::vector<double>& weights, int sites,
                       uint64_t seed) {
  std::vector<WorkloadEvent> events;
  Rng rng(seed);
  for (uint64_t i = 0; i < weights.size(); ++i) {
    events.push_back(WorkloadEvent{
        static_cast<int>(rng.NextBounded(static_cast<uint64_t>(sites))),
        Item{i, weights[i]}});
  }
  return Workload(sites, std::move(events));
}

// ---------------------------------------------------------------------------
// Level set manager unit tests.

TEST(LevelSetManagerTest, LevelsFollowDefinition4) {
  LevelSetManager levels(2.0, 8, 4);
  EXPECT_EQ(levels.LevelOf(0.5), 0);
  EXPECT_EQ(levels.LevelOf(1.0), 0);
  EXPECT_EQ(levels.LevelOf(1.99), 0);
  EXPECT_EQ(levels.LevelOf(2.0), 1);
  EXPECT_EQ(levels.LevelOf(1024.0), 10);
}

TEST(LevelSetManagerTest, SaturatesAtCapacityAndReleases) {
  LevelSetManager levels(2.0, 3, 10);
  int saturated = -1;
  EXPECT_TRUE(levels.AddEarly(Item{0, 1.0}, 5.0, &saturated).empty());
  EXPECT_EQ(saturated, -1);
  EXPECT_TRUE(levels.AddEarly(Item{1, 1.5}, 3.0, &saturated).empty());
  const auto released = levels.AddEarly(Item{2, 1.2}, 4.0, &saturated);
  EXPECT_EQ(saturated, 0);
  EXPECT_EQ(released.size(), 3u);
  EXPECT_TRUE(levels.IsSaturated(0));
  EXPECT_FALSE(levels.IsSaturated(1));
}

TEST(LevelSetManagerTest, LateEarlyItemPassesThroughAfterSaturation) {
  LevelSetManager levels(2.0, 2, 10);
  int saturated = -1;
  levels.AddEarly(Item{0, 1.0}, 1.0, &saturated);
  levels.AddEarly(Item{1, 1.0}, 2.0, &saturated);
  EXPECT_EQ(saturated, 0);
  // A straggler early message for the now-saturated level is released
  // immediately with its key.
  const auto released = levels.AddEarly(Item{2, 1.0}, 9.0, &saturated);
  EXPECT_EQ(saturated, -1);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_DOUBLE_EQ(released[0].key, 9.0);
}

TEST(LevelSetManagerTest, DistinctLevelsIndependent) {
  LevelSetManager levels(2.0, 2, 10);
  int saturated = -1;
  levels.AddEarly(Item{0, 1.0}, 1.0, &saturated);    // level 0
  levels.AddEarly(Item{1, 100.0}, 2.0, &saturated);  // level 6
  EXPECT_EQ(levels.CountInLevel(0), 1u);
  EXPECT_EQ(levels.CountInLevel(6), 1u);
  EXPECT_FALSE(levels.IsSaturated(0));
  const auto released = levels.AddEarly(Item{2, 120.0}, 3.0, &saturated);
  EXPECT_EQ(saturated, 6);
  EXPECT_EQ(released.size(), 2u);
}

TEST(LevelSetManagerTest, CompactionKeepsTopKeysOnly) {
  // top_keys = 2: only the 2 best withheld keys are stored even though
  // counts keep growing (Proposition 6).
  LevelSetManager levels(2.0, 100, 2);
  int saturated = -1;
  for (uint64_t i = 0; i < 50; ++i) {
    levels.AddEarly(Item{i, 1.0}, static_cast<double>(i), &saturated);
  }
  EXPECT_EQ(levels.CountInLevel(0), 50u);
  EXPECT_LE(levels.StoredEntries(), 2u);
  const auto withheld = levels.WithheldEntries();
  ASSERT_EQ(withheld.size(), 2u);
  // The two largest keys (48, 49) survived.
  EXPECT_GE(std::min(withheld[0].key, withheld[1].key), 48.0);
}

// ---------------------------------------------------------------------------
// End-to-end sampler behaviour.

TEST(DistributedWsworTest, SampleSizeIsMinTsAtEveryStep) {
  WsworConfig config;
  config.num_sites = 4;
  config.sample_size = 8;
  config.seed = 1;
  DistributedWswor sampler(config);
  const Workload w = WorkloadBuilder()
                         .num_sites(4)
                         .num_items(30)
                         .seed(2)
                         .weights(std::make_unique<UniformWeights>(1.0, 100.0))
                         .Build();
  for (uint64_t i = 0; i < w.size(); ++i) {
    sampler.Observe(w.event(i).site, w.event(i).item);
    EXPECT_EQ(sampler.Sample().size(), std::min<uint64_t>(i + 1, 8))
        << "at step " << i + 1;
  }
}

TEST(DistributedWsworTest, ExactSetDistribution) {
  const std::vector<double> weights = {1.0, 2.0, 4.0, 1.0, 3.0, 2.0};
  const int s = 2;
  const Workload w = SmallWeighted(weights, 3, 11);
  const auto result = testing::SworSetGoodnessOfFit(
      weights, s, 15000, [&](int t) {
        WsworConfig config;
        config.num_sites = 3;
        config.sample_size = s;
        config.seed = 90000 + static_cast<uint64_t>(t);
        DistributedWswor sampler(config);
        sampler.Run(w);
        std::vector<uint64_t> ids;
        for (const KeyedItem& ki : sampler.Sample()) ids.push_back(ki.item.id);
        return ids;
      });
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(DistributedWsworTest, ExactSetDistributionWithHeavySkew) {
  // Heavy items exercise the level-set withholding path: most items stay
  // withheld (levels unsaturated), so the sample must come from D.
  const std::vector<double> weights = {100.0, 1.0, 50.0, 1.0, 200.0};
  const int s = 2;
  const Workload w = SmallWeighted(weights, 2, 12);
  const auto result = testing::SworSetGoodnessOfFit(
      weights, s, 15000, [&](int t) {
        WsworConfig config;
        config.num_sites = 2;
        config.sample_size = s;
        config.seed = 130000 + static_cast<uint64_t>(t);
        DistributedWswor sampler(config);
        sampler.Run(w);
        std::vector<uint64_t> ids;
        for (const KeyedItem& ki : sampler.Sample()) ids.push_back(ki.item.id);
        return ids;
      });
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(DistributedWsworTest, AblationNoWithholdingSameDistribution) {
  const std::vector<double> weights = {10.0, 1.0, 5.0, 2.0, 7.0};
  const int s = 2;
  const Workload w = SmallWeighted(weights, 2, 13);
  const auto result = testing::SworSetGoodnessOfFit(
      weights, s, 15000, [&](int t) {
        WsworConfig config;
        config.num_sites = 2;
        config.sample_size = s;
        config.seed = 170000 + static_cast<uint64_t>(t);
        config.withhold_heavy = false;
        DistributedWswor sampler(config);
        sampler.Run(w);
        std::vector<uint64_t> ids;
        for (const KeyedItem& ki : sampler.Sample()) ids.push_back(ki.item.id);
        return ids;
      });
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(DistributedWsworTest, DeliveryDelayPreservesDistribution) {
  const std::vector<double> weights = {1.0, 6.0, 2.0, 3.0};
  const int s = 2;
  const Workload w = SmallWeighted(weights, 2, 14);
  const auto result = testing::SworSetGoodnessOfFit(
      weights, s, 15000, [&](int t) {
        WsworConfig config;
        config.num_sites = 2;
        config.sample_size = s;
        config.seed = 210000 + static_cast<uint64_t>(t);
        config.delivery_delay = 3;
        DistributedWswor sampler(config);
        sampler.Run(w);
        sampler.FlushNetwork();
        std::vector<uint64_t> ids;
        for (const KeyedItem& ki : sampler.Sample()) ids.push_back(ki.item.id);
        return ids;
      });
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(DistributedWsworTest, JitteredNetworkPreservesDistribution) {
  const std::vector<double> weights = {1.0, 6.0, 2.0, 3.0};
  const int s = 2;
  const Workload w = SmallWeighted(weights, 2, 15);
  const auto result = testing::SworSetGoodnessOfFit(
      weights, s, 15000, [&](int t) {
        WsworConfig config;
        config.num_sites = 2;
        config.sample_size = s;
        config.seed = 250000 + static_cast<uint64_t>(t);
        config.delivery_delay = 4;
        config.jitter_seed = 77 + static_cast<uint64_t>(t);
        DistributedWswor sampler(config);
        sampler.Run(w);
        sampler.FlushNetwork();
        std::vector<uint64_t> ids;
        for (const KeyedItem& ki : sampler.Sample()) ids.push_back(ki.item.id);
        return ids;
      });
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(DistributedWsworTest, SampleEntriesAreValid) {
  WsworConfig config;
  config.num_sites = 8;
  config.sample_size = 16;
  config.seed = 5;
  DistributedWswor sampler(config);
  const Workload w = WorkloadBuilder()
                         .num_sites(8)
                         .num_items(5000)
                         .seed(6)
                         .weights(std::make_unique<ZipfWeights>(10000, 1.2))
                         .partitioner(std::make_unique<RandomPartitioner>())
                         .Build();
  sampler.Run(w);
  const auto sample = sampler.Sample();
  ASSERT_EQ(sample.size(), 16u);
  std::set<uint64_t> ids;
  for (size_t i = 0; i < sample.size(); ++i) {
    EXPECT_GT(sample[i].key, 0.0);
    if (i > 0) {
      EXPECT_GE(sample[i - 1].key, sample[i].key);
    }
    EXPECT_LT(sample[i].item.id, 5000u);
    ids.insert(sample[i].item.id);
  }
  EXPECT_EQ(ids.size(), 16u) << "sample must be without replacement";
}

TEST(DistributedWsworTest, DeterministicGivenSeed) {
  const Workload w = WorkloadBuilder()
                         .num_sites(4)
                         .num_items(2000)
                         .seed(7)
                         .weights(std::make_unique<UniformWeights>(1.0, 50.0))
                         .Build();
  auto run = [&] {
    WsworConfig config;
    config.num_sites = 4;
    config.sample_size = 8;
    config.seed = 99;
    DistributedWswor sampler(config);
    sampler.Run(w);
    return std::make_pair(sampler.Sample(), sampler.stats().total_messages());
  };
  const auto [sample_a, msgs_a] = run();
  const auto [sample_b, msgs_b] = run();
  EXPECT_EQ(msgs_a, msgs_b);
  ASSERT_EQ(sample_a.size(), sample_b.size());
  for (size_t i = 0; i < sample_a.size(); ++i) {
    EXPECT_EQ(sample_a[i].item.id, sample_b[i].item.id);
    EXPECT_DOUBLE_EQ(sample_a[i].key, sample_b[i].key);
  }
}

TEST(DistributedWsworTest, MessageComplexityWithinTheorem3Bound) {
  for (int k : {4, 16, 64}) {
    for (int s : {4, 32}) {
      const Workload w =
          WorkloadBuilder()
              .num_sites(k)
              .num_items(20000)
              .seed(8)
              .weights(std::make_unique<UniformWeights>(1.0, 20.0))
              .partitioner(std::make_unique<RandomPartitioner>())
              .Build();
      WsworConfig config;
      config.num_sites = k;
      config.sample_size = s;
      config.seed = 17;
      DistributedWswor sampler(config);
      sampler.Run(w);
      const double bound = Theorem3MessageBound(k, s, w.TotalWeight());
      EXPECT_LT(static_cast<double>(sampler.stats().total_messages()),
                30.0 * bound)
          << "k=" << k << " s=" << s;
    }
  }
}

TEST(DistributedWsworTest, MessagesGrowLogarithmicallyInW) {
  WsworConfig config;
  config.num_sites = 16;
  config.sample_size = 8;
  config.seed = 21;
  uint64_t prev = 0;
  for (uint64_t n : {4000u, 16000u, 64000u}) {
    DistributedWswor sampler(config);
    const Workload w = WorkloadBuilder()
                           .num_sites(16)
                           .num_items(n)
                           .seed(22)
                           .partitioner(std::make_unique<RandomPartitioner>())
                           .Build();
    sampler.Run(w);
    const uint64_t msgs = sampler.stats().total_messages();
    EXPECT_LT(msgs, n / 2);
    if (prev > 0) {
      EXPECT_LT(msgs, 3 * prev) << "n=" << n;
    }
    prev = msgs;
  }
}

TEST(DistributedWsworTest, CoordinatorSpaceIsOrderS) {
  WsworConfig config;
  config.num_sites = 16;
  config.sample_size = 32;
  config.seed = 23;
  DistributedWswor sampler(config);
  const Workload w = WorkloadBuilder()
                         .num_sites(16)
                         .num_items(30000)
                         .seed(24)
                         .weights(std::make_unique<ParetoWeights>(1.1))
                         .partitioner(std::make_unique<RandomPartitioner>())
                         .Build();
  uint64_t max_entries = 0;
  sampler.Run(w, [&](uint64_t) {
    max_entries =
        std::max(max_entries,
                 static_cast<uint64_t>(sampler.coordinator().StoredEntries()));
  });
  // Proposition 6: sample (s) + compacted level storage (s) = 2s.
  EXPECT_LE(max_entries, 2u * 32u);
}

TEST(DistributedWsworTest, ThresholdAndEpochMonotone) {
  WsworConfig config;
  config.num_sites = 8;
  config.sample_size = 8;
  config.seed = 25;
  DistributedWswor sampler(config);
  const Workload w = WorkloadBuilder()
                         .num_sites(8)
                         .num_items(20000)
                         .seed(26)
                         .weights(std::make_unique<UniformWeights>(1.0, 8.0))
                         .partitioner(std::make_unique<RandomPartitioner>())
                         .Build();
  double prev_u = 0.0;
  int prev_epoch = -1;
  sampler.Run(w, [&](uint64_t) {
    const double u = sampler.coordinator().Threshold();
    const int epoch = sampler.coordinator().announced_epoch();
    EXPECT_GE(u, prev_u);
    EXPECT_GE(epoch, prev_epoch);
    prev_u = u;
    prev_epoch = epoch;
  });
  EXPECT_GT(prev_u, 0.0);
  EXPECT_GE(prev_epoch, 0);
}

TEST(DistributedWsworTest, Lemma1ReleasedItemsAreLight) {
  // Stream-side check of Lemma 1: replay the deterministic level-set
  // saturation logic and assert every item released to the sampler weighs
  // at most 1/(4s) of the weight released so far.
  const int k = 8;
  const int s = 8;
  const Workload w = WorkloadBuilder()
                         .num_sites(k)
                         .num_items(50000)
                         .seed(27)
                         .weights(std::make_unique<ParetoWeights>(1.05))
                         .partitioner(std::make_unique<RandomPartitioner>())
                         .Build();
  WsworConfig config;
  config.num_sites = k;
  config.sample_size = s;
  const double r = config.ResolvedEpochBase();
  const uint64_t cap = config.LevelCapacity();

  std::vector<std::vector<double>> pending;  // per level
  std::vector<bool> saturated;
  double released_weight = 0.0;
  double max_ratio = 0.0;
  auto release = [&](double weight) {
    released_weight += weight;
    max_ratio = std::max(max_ratio, weight / released_weight);
  };
  for (const auto& e : w.events()) {
    const int level = FloorLogBase(e.item.weight, r);
    if (static_cast<size_t>(level) >= pending.size()) {
      pending.resize(static_cast<size_t>(level) + 1);
      saturated.resize(static_cast<size_t>(level) + 1, false);
    }
    if (saturated[static_cast<size_t>(level)]) {
      release(e.item.weight);
      continue;
    }
    pending[static_cast<size_t>(level)].push_back(e.item.weight);
    if (pending[static_cast<size_t>(level)].size() >= cap) {
      // Weight of the whole batch counts as released before the ratio of
      // its members is evaluated (they join simultaneously).
      for (double batch_w : pending[static_cast<size_t>(level)]) {
        released_weight += batch_w;
      }
      for (double batch_w : pending[static_cast<size_t>(level)]) {
        max_ratio = std::max(max_ratio, batch_w / released_weight);
      }
      pending[static_cast<size_t>(level)].clear();
      saturated[static_cast<size_t>(level)] = true;
    }
  }
  if (released_weight > 0.0) {
    EXPECT_LE(max_ratio, 1.0 / (4.0 * s) + 1e-12);
  }
}

TEST(DistributedWsworTest, ConstantWeightsMatchUniformInclusion) {
  const int n = 10;
  const int s = 3;
  const int trials = 10000;
  const Workload w = WorkloadBuilder().num_sites(2).num_items(n).seed(31).Build();
  std::vector<uint64_t> counts(n, 0);
  for (int t = 0; t < trials; ++t) {
    WsworConfig config;
    config.num_sites = 2;
    config.sample_size = s;
    config.seed = 300000 + static_cast<uint64_t>(t);
    DistributedWswor sampler(config);
    sampler.Run(w);
    for (const KeyedItem& ki : sampler.Sample()) ++counts[ki.item.id];
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_GT(BinomialTwoSidedPValue(counts[i], trials,
                                     static_cast<double>(s) / n),
              1e-5)
        << "item " << i;
  }
}

TEST(DistributedWsworTest, KeyBitsPerDecisionIsConstant) {
  WsworConfig config;
  config.num_sites = 8;
  config.sample_size = 8;
  config.seed = 33;
  DistributedWswor sampler(config);
  const Workload w = WorkloadBuilder()
                         .num_sites(8)
                         .num_items(30000)
                         .seed(34)
                         .partitioner(std::make_unique<RandomPartitioner>())
                         .Build();
  sampler.Run(w);
  ASSERT_GT(sampler.KeysDecided(), 0u);
  const double bits_per_key =
      static_cast<double>(sampler.KeyBitsConsumed()) /
      static_cast<double>(sampler.KeysDecided());
  EXPECT_LT(bits_per_key, 4.0);  // Proposition 7: O(1) expected
}

// ---------------------------------------------------------------------------
// Naive baseline.

TEST(NaiveWsworTest, ExactSetDistribution) {
  const std::vector<double> weights = {3.0, 1.0, 2.0, 6.0, 2.0};
  const int s = 2;
  const Workload w = SmallWeighted(weights, 3, 41);
  const auto result = testing::SworSetGoodnessOfFit(
      weights, s, 15000, [&](int t) {
        NaiveDistributedWswor sampler(3, s, 400000 + static_cast<uint64_t>(t));
        sampler.Run(w);
        std::vector<uint64_t> ids;
        for (const KeyedItem& ki : sampler.Sample()) ids.push_back(ki.item.id);
        return ids;
      });
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

// ---------------------------------------------------------------------------
// Failure injection: malformed protocol traffic must trip invariant
// checks rather than corrupt state.

TEST(ProtocolFailureDeathTest, CoordinatorRejectsUnknownMessageType) {
  WsworConfig config;
  config.num_sites = 2;
  config.sample_size = 4;
  sim::Network network(2);
  WsworCoordinator coordinator(config, &network, /*seed=*/1);
  sim::Payload bogus;
  bogus.type = 77;
  EXPECT_DEATH(coordinator.OnMessage(0, bogus), "unexpected message type");
}

TEST(ProtocolFailureDeathTest, SiteRejectsUnknownMessageType) {
  WsworConfig config;
  config.num_sites = 2;
  config.sample_size = 4;
  sim::Network network(2);
  WsworSite site(config, 0, &network, /*seed=*/1);
  sim::Payload bogus;
  bogus.type = 99;
  EXPECT_DEATH(site.OnMessage(bogus), "unexpected message type");
}

TEST(ProtocolFailureDeathTest, NonPositiveWeightRejected) {
  DistributedWswor sampler(
      WsworConfig{.num_sites = 2, .sample_size = 4, .seed = 1});
  EXPECT_DEATH(sampler.Observe(0, Item{1, 0.0}), "DWRS_CHECK");
  EXPECT_DEATH(sampler.Observe(0, Item{1, -3.0}), "DWRS_CHECK");
}

TEST(ProtocolFailureDeathTest, OutOfRangeSiteRejected) {
  DistributedWswor sampler(
      WsworConfig{.num_sites = 2, .sample_size = 4, .seed = 1});
  EXPECT_DEATH(sampler.Observe(5, Item{1, 1.0}), "DWRS_CHECK");
}

TEST(ProtocolFailureDeathTest, FacadeRunRejectsSiteCountMismatch) {
  // Every facade's Run is sim::Runtime::Run, whose named check rejects a
  // workload built for another site count.
  const Workload two_sites(2, {WorkloadEvent{0, Item{1, 1.0}}});
  const char* kCheck = "runtime\\.cc.*workload\\.num_sites\\(\\)";
  DistributedWswor wswor({.num_sites = 3, .sample_size = 4, .seed = 1});
  EXPECT_DEATH(wswor.Run(two_sites), kCheck);
  NaiveDistributedWswor naive(3, 4, 1);
  EXPECT_DEATH(naive.Run(two_sites), kCheck);
  DistributedUnweightedSwor uswor({.num_sites = 3, .sample_size = 4});
  EXPECT_DEATH(uswor.Run(two_sites), kCheck);
  DistributedSwr swr({.num_sites = 3, .sample_size = 4});
  EXPECT_DEATH(swr.Run(two_sites), kCheck);
  L1Tracker l1({.num_sites = 3, .eps = 0.25});
  EXPECT_DEATH(l1.Run(two_sites), kCheck);
  SqrtkL1Tracker sqrtk(3, 0.25, 1);
  EXPECT_DEATH(sqrtk.Run(two_sites), kCheck);
  DeterministicL1Tracker det(3, 0.25);
  EXPECT_DEATH(det.Run(two_sites), kCheck);
  DistributedMgHh mg(3, 4, 8);
  EXPECT_DEATH(mg.Run(two_sites), kCheck);
  DistributedWindowWswor window({.num_sites = 3, .sample_size = 4});
  EXPECT_DEATH(window.Run(two_sites), kCheck);
}

TEST(NaiveWsworTest, SendsMoreMessagesThanOptimal) {
  // Scale where the asymptotic gap dominates warm-up constants: the naive
  // baseline pays ~k*s*ln(n/k) while ours pays ~k*log(W/s)/log(1+k/s)
  // plus an O(k*s) level-set warm-up.
  const Workload w = WorkloadBuilder()
                         .num_sites(64)
                         .num_items(300000)
                         .seed(42)
                         .weights(std::make_unique<UniformWeights>(1.0, 2.0))
                         .partitioner(std::make_unique<RandomPartitioner>())
                         .Build();
  NaiveDistributedWswor naive(64, 64, 43);
  naive.Run(w);
  WsworConfig config;
  config.num_sites = 64;
  config.sample_size = 64;
  config.seed = 43;
  DistributedWswor ours(config);
  ours.Run(w);
  EXPECT_GT(naive.stats().total_messages(),
            3 * ours.stats().total_messages());
}

}  // namespace
}  // namespace dwrs
