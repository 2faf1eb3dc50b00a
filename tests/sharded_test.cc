// Tests of the sharded multi-coordinator topology: the ShardTopology
// partition, the MergeableSample merge algebra, the exactness of the
// root merge (bit-identical at S = 1, chi-square-exact at S ∈ {1, 2, 4}),
// cross-backend replay (sim::ShardedRuntime vs engine::ShardedEngine in
// step-synchronous mode), per-shard fault isolation, and the
// summation-composed sharded L1 estimate.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "core/sampler.h"
#include "core/sharded_sampler.h"
#include "engine/sharded_engine.h"
#include "faults/harness.h"
#include "l1/l1_tracker.h"
#include "random/rng.h"
#include "sampling/mergeable_sample.h"
#include "sim/deployment.h"
#include "sim/sharded_runtime.h"
#include "stream/sharding.h"
#include "stream/workload.h"
#include "test_util.h"
#include "unweighted/distributed_swor.h"
#include "unweighted/distributed_swr.h"

namespace dwrs {
namespace {

using engine::ShardedEngine;
using engine::ShardedEngineConfig;
using faults::Backend;
using faults::FaultConfig;
using faults::FaultSchedule;
using faults::RunReport;
using faults::ShardedFaultyWswor;

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

Workload ZipfWorkload(int k, uint64_t n, uint64_t seed) {
  return WorkloadBuilder()
      .num_sites(k)
      .num_items(n)
      .seed(seed)
      .weights(std::make_unique<ZipfWeights>(uint64_t{1} << 16, 1.2))
      .partitioner(std::make_unique<RandomPartitioner>())
      .Build();
}

KeyedItem KI(uint64_t id, double weight, double key) {
  return KeyedItem{Item{id, weight}, key};
}

// ---------------------------------------------------------------------
// ShardTopology.

TEST(ShardTopologyTest, BlockPartitionInvariants) {
  const std::pair<int, int> cases[] = {{4, 1}, {4, 2}, {4, 4}, {7, 3},
                                       {16, 4}, {5, 5}, {9, 2}};
  for (const auto& [k, shards] : cases) {
    const ShardTopology topo(k, shards);
    EXPECT_EQ(topo.Begin(0), 0);
    EXPECT_EQ(topo.Begin(shards), k);
    int covered = 0;
    for (int j = 0; j < shards; ++j) {
      EXPECT_GE(topo.SiteCount(j), 1);
      // Blocks differ by at most one site (balanced partition).
      EXPECT_LE(topo.SiteCount(0) - topo.SiteCount(j), 1);
      covered += topo.SiteCount(j);
    }
    EXPECT_EQ(covered, k);
    for (int site = 0; site < k; ++site) {
      const int shard = topo.ShardOf(site);
      const int local = topo.LocalOf(site);
      EXPECT_TRUE(shard >= 0 && shard < shards);
      EXPECT_TRUE(local >= 0 && local < topo.SiteCount(shard));
      EXPECT_EQ(topo.GlobalOf(shard, local), site);
    }
  }
}

TEST(ShardTopologyTest, SplitPreservesPerShardOrderWithLocalIndices) {
  const std::vector<double> weights = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const Workload w = SmallWeighted(weights, 5, /*seed=*/3);
  const ShardTopology topo(5, 2);
  const std::vector<Workload> splits = SplitByShard(w, topo);
  ASSERT_EQ(splits.size(), 2u);
  uint64_t total = 0;
  for (int j = 0; j < 2; ++j) {
    total += splits[static_cast<size_t>(j)].size();
    EXPECT_EQ(splits[static_cast<size_t>(j)].num_sites(), topo.SiteCount(j));
    uint64_t last_id = 0;
    for (const WorkloadEvent& e : splits[static_cast<size_t>(j)].events()) {
      EXPECT_LT(e.site, topo.SiteCount(j));
      // Item ids are the global arrival order here, so per-shard order
      // preserved == ids strictly increasing within the split.
      EXPECT_TRUE(last_id == 0 || e.item.id > last_id);
      last_id = e.item.id;
    }
  }
  EXPECT_EQ(total, w.size());
}

// ---------------------------------------------------------------------
// MergeableSample algebra.

TEST(MergeableSampleTest, TopKeyMergeKeepsGlobalTopEntries) {
  MergeableSample a;
  a.kind = SampleKind::kTopKey;
  a.target_size = 3;
  a.entries = {KI(1, 1.0, 9.0), KI(2, 1.0, 5.0), KI(3, 1.0, 1.0)};
  MergeableSample b;
  b.kind = SampleKind::kTopKey;
  b.target_size = 3;
  b.entries = {KI(4, 1.0, 8.0), KI(5, 1.0, 2.0)};

  const MergeableSample merged = MergeShardSamples({a, b});
  const std::vector<KeyedItem> top = merged.TopEntries();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].item.id, 1u);
  EXPECT_EQ(top[1].item.id, 4u);
  EXPECT_EQ(top[2].item.id, 2u);
  // The merged summary itself stays O(s).
  EXPECT_LE(merged.entries.size(), 3u);
}

TEST(MergeableSampleTest, MergeIsAssociative) {
  std::vector<MergeableSample> shards(3);
  Rng rng(11);
  for (size_t j = 0; j < shards.size(); ++j) {
    shards[j].kind = SampleKind::kTopKey;
    shards[j].target_size = 4;
    for (int i = 0; i < 6; ++i) {
      shards[j].entries.push_back(
          KI(100 * j + static_cast<uint64_t>(i), 1.0, rng.NextDouble()));
    }
  }
  const MergeableSample all = MergeShardSamples(shards);
  const MergeableSample left =
      MergeShardSamples({MergeShardSamples({shards[0], shards[1]}), shards[2]});
  const MergeableSample right =
      MergeShardSamples({shards[0], MergeShardSamples({shards[1], shards[2]})});
  const auto ids = [](const MergeableSample& s) {
    std::vector<uint64_t> out;
    for (const KeyedItem& ki : s.TopEntries()) out.push_back(ki.item.id);
    return out;
  };
  EXPECT_EQ(ids(all), ids(left));
  EXPECT_EQ(ids(all), ids(right));
}

TEST(MergeableSampleTest, WithheldMergesByLevelThenRethins) {
  MergeableSample a;
  a.kind = SampleKind::kTopKey;
  a.target_size = 2;
  a.withheld = {LeveledKeyedItem{KI(1, 4.0, 7.0), 2},
                LeveledKeyedItem{KI(2, 4.0, 3.0), 2}};
  a.level_counts = {LevelCount{2, 5}};
  MergeableSample b;
  b.kind = SampleKind::kTopKey;
  b.target_size = 2;
  b.withheld = {LeveledKeyedItem{KI(3, 4.0, 5.0), 2},
                LeveledKeyedItem{KI(4, 8.0, 1.0), 3}};
  b.level_counts = {LevelCount{2, 4}, LevelCount{3, 1}};

  const MergeableSample merged = MergeShardSamples({a, b});
  // Per-level counts compose by summation.
  EXPECT_EQ(merged.LevelCountOf(2), 9u);
  EXPECT_EQ(merged.LevelCountOf(3), 1u);
  EXPECT_EQ(merged.LevelCountOf(7), 0u);
  // Withheld entries re-thin to the global top-target_size (cross-shard
  // Proposition 6): of keys {7, 3, 5, 1} only {7, 5} can ever matter.
  ASSERT_EQ(merged.withheld.size(), 2u);
  EXPECT_EQ(merged.withheld[0].entry.item.id, 1u);
  EXPECT_EQ(merged.withheld[1].entry.item.id, 3u);
  const std::vector<KeyedItem> top = merged.TopEntries();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].item.id, 1u);
  EXPECT_EQ(top[1].item.id, 3u);
}

TEST(MergeableSampleTest, SlotMinTakesPerRaceMinimum) {
  MergeableSample a;
  a.kind = SampleKind::kSlotMin;
  a.target_size = 3;
  a.slots.resize(3);
  a.slots[0] = MergeableSample::Slot{true, 0.4, Item{1, 2.0}};
  a.slots[2] = MergeableSample::Slot{true, 0.9, Item{2, 1.0}};
  MergeableSample b;
  b.kind = SampleKind::kSlotMin;
  b.target_size = 3;
  b.slots.resize(3);
  b.slots[0] = MergeableSample::Slot{true, 0.2, Item{3, 1.0}};
  b.slots[1] = MergeableSample::Slot{true, 0.7, Item{4, 3.0}};

  const MergeableSample merged = MergeShardSamples({a, b});
  ASSERT_EQ(merged.slots.size(), 3u);
  EXPECT_EQ(merged.slots[0].item.id, 3u);  // 0.2 beats 0.4
  EXPECT_EQ(merged.slots[1].item.id, 4u);  // only contender
  EXPECT_EQ(merged.slots[2].item.id, 2u);
  EXPECT_EQ(merged.TopEntries().size(), 3u);
}

TEST(MergeableSampleTest, ScalarSumsAndEmptyIsIdentity) {
  MergeableSample a;
  a.kind = SampleKind::kScalarSum;
  a.scalar = 2.5;
  MergeableSample b;
  b.kind = SampleKind::kScalarSum;
  b.scalar = 4.0;
  const MergeableSample merged = MergeShardSamples({a, MergeableSample{}, b});
  EXPECT_EQ(merged.kind, SampleKind::kScalarSum);
  EXPECT_DOUBLE_EQ(merged.scalar, 6.5);

  const MergeableSample none = MergeShardSamples({{}, {}});
  EXPECT_EQ(none.kind, SampleKind::kEmpty);
  EXPECT_TRUE(none.TopEntries().empty());
}

// ---------------------------------------------------------------------
// Sharded weighted SWOR: S = 1 is the unsharded protocol bit for bit.

TEST(ShardedWsworTest, SingleShardBitIdenticalToUnsharded) {
  const WsworConfig config{.num_sites = 4, .sample_size = 8, .seed = 42};
  const Workload w = ZipfWorkload(4, 3000, /*seed=*/5);

  DistributedWswor unsharded(config);
  unsharded.Run(w);

  ShardedWswor sharded(config, /*num_shards=*/1);
  sharded.Run(w);

  const std::vector<KeyedItem> a = unsharded.Sample();
  const std::vector<KeyedItem> b = sharded.Sample();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item.id, b[i].item.id) << " position " << i;
    EXPECT_EQ(a[i].key, b[i].key) << " position " << i;
  }
  const sim::MessageStats& sa = unsharded.stats();
  const sim::MessageStats sb = sharded.stats();
  EXPECT_EQ(sa.site_to_coord, sb.site_to_coord);
  EXPECT_EQ(sa.coord_to_site, sb.coord_to_site);
  EXPECT_EQ(sa.words, sb.words);
}

TEST(ShardedWsworTest, SingleShardBitIdenticalUnderDelayAndJitter) {
  // Shard 0 takes the jitter seed raw, so the bit-identity contract
  // holds on a jittered delaying network too, not just the zero-delay
  // case.
  const WsworConfig config{.num_sites = 3,
                           .sample_size = 8,
                           .seed = 11,
                           .delivery_delay = 3,
                           .jitter_seed = 5};
  const Workload w = ZipfWorkload(3, 1500, /*seed=*/23);

  DistributedWswor unsharded(config);
  unsharded.Run(w);
  unsharded.FlushNetwork();

  ShardedWswor sharded(config, /*num_shards=*/1);
  sharded.Run(w);
  sharded.FlushNetwork();

  const std::vector<KeyedItem> a = unsharded.Sample();
  const std::vector<KeyedItem> b = sharded.Sample();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item.id, b[i].item.id) << " position " << i;
    EXPECT_EQ(a[i].key, b[i].key) << " position " << i;
  }
  EXPECT_EQ(unsharded.stats().site_to_coord, sharded.stats().site_to_coord);
}

// ---------------------------------------------------------------------
// Distribution exactness of the merged global sample at S ∈ {1, 2, 4}.

TEST(ShardedDistributionTest, MergedSampleSetsChiSquareAcrossShardCounts) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const int k = 4, s = 2, trials = 2000;
  for (int shards : {1, 2, 4}) {
    const auto result = testing::SworSetGoodnessOfFit(
        weights, s, trials, [&](int t) {
          const WsworConfig config{
              .num_sites = k,
              .sample_size = s,
              .seed = 10000 * static_cast<uint64_t>(shards) +
                      static_cast<uint64_t>(t)};
          ShardedWswor sampler(config, shards);
          sampler.Run(SmallWeighted(weights, k,
                                    /*seed=*/777 + static_cast<uint64_t>(t)));
          std::vector<uint64_t> ids;
          for (const KeyedItem& ki : sampler.Sample()) ids.push_back(ki.item.id);
          return ids;
        });
    EXPECT_GT(result.p_value, 1e-3)
        << "S=" << shards << " chi2=" << result.statistic
        << " df=" << result.degrees_of_freedom;
  }
}

TEST(ShardedDistributionTest, UnweightedMinKeyMergeChiSquare) {
  // The unweighted substrate's min-key merge (negated-key kTopKey): the
  // merged sample must be a uniform SWOR of the union stream.
  const std::vector<double> weights(6, 1.0);
  const int k = 4, s = 2, shards = 2, trials = 2000;
  const ShardTopology topo(k, shards);
  const auto result = testing::SworSetGoodnessOfFit(
      weights, s, trials, [&](int t) {
        sim::ShardedRuntime runtime(k, shards);
        std::vector<UsworConfig> shard_configs;
        for (int j = 0; j < shards; ++j) {
          UsworConfig config;
          config.num_sites = topo.SiteCount(j);
          config.sample_size = s;
          shard_configs.push_back(config);
        }
        const auto endpoints = sim::DeploySharded(
            runtime, 40000 + static_cast<uint64_t>(t),
            [&](int j, int i, sim::Transport* transport, uint64_t seed) {
              return std::make_unique<UsworSite>(
                  shard_configs[static_cast<size_t>(j)], i, transport, seed);
            },
            [&](int j, sim::Transport* transport, uint64_t) {
              return std::make_unique<UsworCoordinator>(
                  shard_configs[static_cast<size_t>(j)], transport);
            });
        runtime.Run(SmallWeighted(weights, k,
                                  /*seed=*/555 + static_cast<uint64_t>(t)));
        std::vector<uint64_t> ids;
        for (const Item& item : UsworSampleFromMerged(runtime.MergedSample())) {
          ids.push_back(item.id);
        }
        return ids;
      });
  EXPECT_GT(result.p_value, 1e-3) << "chi2=" << result.statistic;
}

TEST(ShardedDistributionTest, SwrSlotMergeRaceWinnerIsWeightedDraw) {
  // Sharded SWR: every race's merged winner (min of per-shard minima)
  // must be a fresh weighted draw over the whole stream.
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  const int k = 2, s = 4, shards = 2, trials = 1500;
  const ShardTopology topo(k, shards);
  const auto result = testing::WeightedDrawGoodnessOfFit(
      weights, trials, [&](int t) {
        sim::ShardedRuntime runtime(k, shards);
        SlottedSwrConfig config;
        config.num_sites = 1;  // per shard
        config.sample_size = s;
        const auto endpoints = sim::DeploySharded(
            runtime, 60000 + static_cast<uint64_t>(t),
            [&](int, int i, sim::Transport* transport, uint64_t seed) {
              return std::make_unique<SlottedSwrSite>(config, i, transport,
                                                      seed);
            },
            [&](int, sim::Transport* transport, uint64_t) {
              return std::make_unique<SlottedSwrCoordinator>(config, transport);
            });
        runtime.Run(SmallWeighted(weights, k,
                                  /*seed=*/888 + static_cast<uint64_t>(t)));
        const MergeableSample merged = runtime.MergedSample();
        EXPECT_EQ(merged.kind, SampleKind::kSlotMin);
        EXPECT_TRUE(merged.slots[0].filled);
        return merged.slots[0].item.id;
      });
  EXPECT_GT(result.p_value, 1e-3) << "chi2=" << result.statistic;
}

// ---------------------------------------------------------------------
// Cross-backend replay: engine::ShardedEngine in step-synchronous mode
// is bit-identical to sim::ShardedRuntime — merged sample and per-shard
// traffic alike.

TEST(ShardedEquivalenceTest, EngineStepSyncMatchesShardedRuntime) {
  const WsworConfig config{.num_sites = 4, .sample_size = 8, .seed = 13};
  const int shards = 2;
  const Workload w = ZipfWorkload(4, 2500, /*seed=*/7);

  ShardedWswor sim_sampler(config, shards);
  sim_sampler.Run(w);

  ShardedEngineConfig engine_config;
  engine_config.num_sites = 4;
  engine_config.num_shards = shards;
  ShardedEngine eng(engine_config);
  const ShardedWsworEndpoints endpoints = AttachShardedWswor(config, eng);
  eng.Run(w, [](uint64_t) {});  // a hook makes the run step-synchronous

  const std::vector<KeyedItem> a = sim_sampler.Sample();
  const std::vector<KeyedItem> b = eng.MergedSample().TopEntries();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item.id, b[i].item.id) << " position " << i;
    EXPECT_EQ(a[i].key, b[i].key) << " position " << i;
  }
  for (int j = 0; j < shards; ++j) {
    const sim::MessageStats& sa = sim_sampler.shard_stats(j);
    const sim::MessageStats sb = eng.shard_engine(j).stats().MessageSnapshot();
    EXPECT_EQ(sa.site_to_coord, sb.site_to_coord) << " shard " << j;
    EXPECT_EQ(sa.coord_to_site, sb.coord_to_site) << " shard " << j;
    EXPECT_EQ(sa.words, sb.words) << " shard " << j;
  }
  eng.Shutdown();
}

std::vector<uint64_t> Ids(const std::vector<KeyedItem>& sample) {
  std::vector<uint64_t> ids;
  for (const KeyedItem& ki : sample) ids.push_back(ki.item.id);
  return ids;
}

std::vector<uint64_t> Ids(const std::vector<Item>& sample) {
  std::vector<uint64_t> ids;
  for (const Item& item : sample) ids.push_back(item.id);
  return ids;
}

// Every builder draws its seeds through sim::DeriveDeploymentSeeds, so
// at zero faults every stack of one protocol returns the same sample.
TEST(ShardedEquivalenceTest, EveryBuilderReturnsTheSameSample) {
  for (const uint64_t seed : {1, 2, 3}) {
    const Workload w = ZipfWorkload(4, 2000, /*seed=*/100 + seed);
    const WsworConfig config{.num_sites = 4, .sample_size = 8, .seed = seed};
    DistributedWswor facade(config);
    facade.Run(w);
    const std::vector<uint64_t> expected = Ids(facade.Sample());

    ShardedWswor sharded(config, /*num_shards=*/1);
    sharded.Run(w);
    EXPECT_EQ(Ids(sharded.Sample()), expected) << " seed " << seed;
    for (const Backend backend : {Backend::kSim, Backend::kEngine}) {
      faults::FaultyWswor faulty(config, FaultConfig{}, backend);
      faulty.Run(w);
      EXPECT_EQ(faulty.SampleIds(), expected) << " seed " << seed;
    }
    engine::Engine eng(engine::EngineConfig{.num_sites = 4});
    const auto endpoints = sim::Deploy(
        eng, config.seed,
        [&](int i, sim::Transport* transport, uint64_t site_seed) {
          return std::make_unique<WsworSite>(config, i, transport, site_seed);
        },
        [&](sim::Transport* transport, uint64_t coordinator_seed) {
          return std::make_unique<WsworCoordinator>(config, transport,
                                                    coordinator_seed);
        });
    eng.Run(w, [](uint64_t) {});
    EXPECT_EQ(Ids(endpoints.coordinator->Sample()), expected)
        << " seed " << seed;

    const UsworConfig uconfig{.num_sites = 4, .sample_size = 8, .seed = seed};
    DistributedUnweightedSwor ufacade(uconfig);
    ufacade.Run(w);
    for (const Backend backend : {Backend::kSim, Backend::kEngine}) {
      faults::FaultyUswor ufaulty(uconfig, FaultConfig{}, backend);
      ufaulty.Run(w);
      EXPECT_EQ(ufaulty.SampleIds(), Ids(ufacade.Sample()))
          << " seed " << seed;
    }

    // S = 2: the sharded fault harness draws its seeds by the same rule
    // as every other sharded deployment.
    ShardedWswor two_shards(config, /*num_shards=*/2);
    two_shards.Run(w);
    const std::vector<uint64_t> expected_two = Ids(two_shards.Sample());
    for (const Backend backend : {Backend::kSim, Backend::kEngine}) {
      ShardedFaultyWswor faulty(config, {FaultConfig{}, FaultConfig{}},
                                backend);
      faulty.Run(w);
      EXPECT_EQ(faulty.MergedSampleIds(), expected_two) << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------
// Full-throughput sharded engine: nondeterministic interleaving, still
// an exact weighted SWOR after the root merge.

TEST(ShardedEngineTest, PipelinedMergedSampleChiSquare) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const int k = 4, s = 2, shards = 2, trials = 2000;
  const auto result = testing::SworSetGoodnessOfFit(
      weights, s, trials, [&](int t) {
        const WsworConfig config{
            .num_sites = k, .sample_size = s,
            .seed = 70000 + static_cast<uint64_t>(t)};
        ShardedEngineConfig engine_config;
        engine_config.num_sites = k;
        engine_config.num_shards = shards;
        engine_config.shard.batch_size = 2;
        engine_config.shard.item_queue_batches = 2;
        engine_config.shard.message_queue_capacity = 4;
        ShardedEngine eng(engine_config);
        const ShardedWsworEndpoints endpoints =
            AttachShardedWswor(config, eng);
        Rng partition(99 + static_cast<uint64_t>(t));
        for (uint64_t i = 0; i < weights.size(); ++i) {
          eng.Push(static_cast<int>(
                       partition.NextBounded(static_cast<uint64_t>(k))),
                   Item{i, weights[i]});
        }
        eng.Flush();
        std::vector<uint64_t> ids;
        for (const KeyedItem& ki : eng.MergedSample().TopEntries()) {
          ids.push_back(ki.item.id);
        }
        eng.Shutdown();
        return ids;
      });
  EXPECT_GT(result.p_value, 1e-3) << "chi2=" << result.statistic;
}

TEST(ShardedEngineTest, PerShardMessageCountsSumToAggregate) {
  const WsworConfig config{.num_sites = 6, .sample_size = 8, .seed = 5};
  ShardedEngineConfig engine_config;
  engine_config.num_sites = 6;
  engine_config.num_shards = 3;
  ShardedEngine eng(engine_config);
  const ShardedWsworEndpoints endpoints = AttachShardedWswor(config, eng);
  eng.Run(ZipfWorkload(6, 4000, /*seed=*/17));

  const std::vector<uint64_t> per_shard = eng.PerShardMessages();
  ASSERT_EQ(per_shard.size(), 3u);
  uint64_t sum = 0;
  for (uint64_t m : per_shard) sum += m;
  EXPECT_EQ(sum, eng.AggregateMessageSnapshot().total_messages());
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(eng.steps(), 4000u);
  eng.Shutdown();
}

// ---------------------------------------------------------------------
// Pipelined message cost: ShardedEngine::Run paces its quiesces by the
// shards' summed waste (one countdown for the whole engine), which holds
// a fresh engine's messages near sim::ShardedRuntime's.

Workload PaperZipfWorkload(int k, uint64_t n, uint64_t seed) {
  return WorkloadBuilder()
      .num_sites(k)
      .num_items(n)
      .seed(seed)
      .weights(std::make_unique<ZipfWeights>(uint64_t{1} << 20, 1.1))
      .partitioner(std::make_unique<RandomPartitioner>())
      .Build();
}

Workload HotSiteWorkload(int k, uint64_t n, uint64_t seed) {
  return WorkloadBuilder()
      .num_sites(k)
      .num_items(n)
      .seed(seed)
      .weights(std::make_unique<SelfSimilarWeights>())
      .partitioner(std::make_unique<AdversarialPartitioner>(
          /*hop_every=*/4096))
      .Build();
}

// Messages of a pipelined S = 2 Run on a fresh engine over ShardedWswor's.
double ShardedMessageRatio(const WsworConfig& config, const Workload& w) {
  const int shards = 2;
  ShardedWswor sim_sampler(config, shards);
  sim_sampler.Run(w);
  ShardedEngineConfig engine_config;
  engine_config.num_sites = config.num_sites;
  engine_config.num_shards = shards;
  ShardedEngine eng(engine_config);
  const ShardedWsworEndpoints endpoints = AttachShardedWswor(config, eng);
  eng.Run(w);
  const double ratio =
      static_cast<double>(eng.AggregateMessageSnapshot().total_messages()) /
      static_cast<double>(sim_sampler.stats().total_messages());
  eng.Shutdown();
  return ratio;
}

TEST(ShardedMessageCostTest, PipelinedZipfRunStaysNearTheSimulator) {
  for (const uint64_t seed : {1, 2, 3}) {
    const WsworConfig config{.num_sites = 8, .sample_size = 32, .seed = seed};
    EXPECT_LE(ShardedMessageRatio(config, PaperZipfWorkload(8, 200000, seed)),
              1.20)
        << " seed " << seed;
  }
}

TEST(ShardedMessageCostTest, PipelinedHotSiteRunStaysNearTheSimulator) {
  for (const uint64_t seed : {1, 2, 3}) {
    const WsworConfig config{.num_sites = 8, .sample_size = 32, .seed = seed};
    EXPECT_LE(ShardedMessageRatio(config, HotSiteWorkload(8, 200000, seed)),
              1.5)
        << " seed " << seed;
  }
}

TEST(ShardedMessageCostTest, StepSynchronousRunWastesNothing) {
  const WsworConfig config{.num_sites = 4, .sample_size = 8, .seed = 43};
  ShardedEngineConfig engine_config;
  engine_config.num_sites = 4;
  engine_config.num_shards = 2;
  ShardedEngine eng(engine_config);
  const ShardedWsworEndpoints endpoints = AttachShardedWswor(config, eng);
  eng.Run(ZipfWorkload(4, 5000, /*seed=*/47), [](uint64_t) {});
  EXPECT_EQ(eng.WastedMessages(), 0u);
  eng.Shutdown();
}

// ---------------------------------------------------------------------
// Fault injection with per-shard sessions: a crash schedule confined to
// one shard degrades only that shard's slice; the merged sample is an
// exact SWOR over the surviving items and never contains a lost one.

TEST(ShardedFaultsTest, CrashedShardIsExactOverSurvivorsAndIsolated) {
  const std::vector<double> weights = {1.0, 2.0, 4.0, 1.0, 3.0,
                                       2.0, 5.0, 1.0, 2.0, 3.0};
  const int k = 4, s = 2, shards = 2;
  const ShardTopology topo(k, shards);
  const Workload w = SmallWeighted(weights, k, /*seed=*/19);

  FaultConfig crashy;
  crashy.seed = 31;  // chosen so the schedule actually loses items
  crashy.crash_prob = 0.25;
  crashy.crash_down_items = 2;
  const FaultConfig clean;  // shard 1: no faults
  const std::vector<FaultConfig> shard_faults = {crashy, clean};

  // Ground truth: shard 0's survivors under its own schedule, all of
  // shard 1's items — the merged sample must be an exact SWOR of these.
  const std::vector<Workload> splits = SplitByShard(w, topo);
  std::set<uint64_t> survivors;
  for (uint64_t id :
       faults::SurvivingItemIds(splits[0], FaultSchedule(crashy))) {
    survivors.insert(id);
  }
  for (const WorkloadEvent& e : splits[1].events()) survivors.insert(e.item.id);
  ASSERT_LT(survivors.size(), weights.size());  // the schedule bit
  ASSERT_GE(survivors.size(), 4u);

  std::map<uint64_t, uint64_t> survivor_index;
  std::vector<double> survivor_weights;
  for (uint64_t id : survivors) {
    survivor_index[id] = survivor_weights.size();
    survivor_weights.push_back(weights[id]);
  }

  uint64_t crashes_seen = 0;
  const auto result = testing::SworSetGoodnessOfFit(
      survivor_weights, s, 3000, [&](int t) {
        WsworConfig config;
        config.num_sites = k;
        config.sample_size = s;
        config.seed = 500000 + static_cast<uint64_t>(t);
        ShardedFaultyWswor run(config, shard_faults, Backend::kSim);
        run.Run(w);
        const RunReport report = run.report();
        EXPECT_TRUE(report.clean) << " trial " << t;
        crashes_seen += report.crashes;
        // Fault isolation: all crashes live in shard 0.
        EXPECT_EQ(run.shard(1).report().crashes, 0u);
        std::vector<uint64_t> remapped;
        for (uint64_t id : run.MergedSampleIds()) {
          auto it = survivor_index.find(id);
          EXPECT_TRUE(it != survivor_index.end())
              << " sampled item " << id << " was lost in a crash";
          remapped.push_back(it->second);
        }
        return remapped;
      });
  EXPECT_GT(crashes_seen, 0u);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

// ---------------------------------------------------------------------
// Sharded L1: per-shard W-hat estimates compose by summation.

TEST(ShardedL1Test, SummedShardEstimatesTrackTotalWeight) {
  const int k = 4, shards = 2;
  const ShardTopology topo(k, shards);
  L1TrackerConfig config;
  config.num_sites = k;
  config.eps = 0.15;
  config.delta = 0.1;
  config.seed = 21;

  const Workload w = WorkloadBuilder()
                         .num_sites(k)
                         .num_items(600)
                         .seed(33)
                         .weights(std::make_unique<UniformWeights>(1.0, 16.0))
                         .partitioner(std::make_unique<RandomPartitioner>())
                         .Build();

  sim::ShardedRuntime runtime(k, shards);
  std::vector<L1TrackerConfig> shard_configs;
  for (int j = 0; j < shards; ++j) {
    L1TrackerConfig shard_config = config;
    shard_config.num_sites = topo.SiteCount(j);
    shard_configs.push_back(shard_config);
  }
  const auto endpoints = sim::DeploySharded(
      runtime, config.seed,
      [&](int j, int i, sim::Transport* transport, uint64_t seed) {
        return std::make_unique<L1Site>(shard_configs[static_cast<size_t>(j)],
                                        i, transport, seed);
      },
      [&](int j, sim::Transport* transport, uint64_t seed) {
        return std::make_unique<WsworCoordinator>(
            L1CoordinatorConfig(shard_configs[static_cast<size_t>(j)]),
            transport, seed);
      });
  const auto& coords = endpoints.coordinators;
  runtime.Run(w);

  std::vector<const WsworCoordinator*> coordinator_ptrs;
  for (const auto& c : coords) coordinator_ptrs.push_back(c.get());
  const double estimate = ShardedL1Estimate(config, coordinator_ptrs);
  const double truth = w.TotalWeight();
  EXPECT_GT(estimate, 0.0);
  EXPECT_LT(std::abs(estimate - truth) / truth, config.eps)
      << " estimate=" << estimate << " W=" << truth;

  // The scalar summaries really do merge by summation.
  const double direct =
      L1EstimateFromThreshold(config, coords[0]->Threshold()) +
      L1EstimateFromThreshold(config, coords[1]->Threshold());
  EXPECT_DOUBLE_EQ(estimate, direct);
}

}  // namespace
}  // namespace dwrs
