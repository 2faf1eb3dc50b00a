// Tests for the scenario layer (stream/scenario.h) and its temporal
// dynamics (stream/dynamics.h): registry shape, seed-determinism of
// every generator / churn schedule, sim <-> engine bit-identity of
// every scenario on the step-synchronous engine, chi-square
// exactness of merged samples under hot-key drift and site churn at
// S in {1, 4}, and a 25-seed churn-with-loss sweep asserting degraded
// runs are always flagged, never silently wrong.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/sampler.h"
#include "engine/engine.h"
#include "faults/harness.h"
#include "gtest/gtest.h"
#include "sampling/mergeable_sample.h"
#include "stats/chi_square.h"
#include "stream/scenario.h"
#include "stream/sharding.h"
#include "test_util.h"

namespace dwrs {
namespace {

using faults::Backend;
using faults::FaultConfig;
using faults::FaultSchedule;
using faults::FaultyWswor;
using faults::RunReport;
using faults::ShardedFaultyWswor;

// ---------------------------------------------------------------------
// Registry shape.

TEST(ScenarioRegistryTest, CatalogShape) {
  const auto& registry = ScenarioRegistry();
  EXPECT_GE(registry.size(), 6u);
  std::set<std::string> names;
  for (const ScenarioSpec& s : registry) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.description.empty());
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_GT(s.num_sites, 0);
    EXPECT_GT(s.items_quick, 0u);
    EXPECT_GT(s.items_full, s.items_quick);
    ASSERT_TRUE(s.make_weights != nullptr) << s.name;
    ASSERT_TRUE(s.make_partitioner != nullptr) << s.name;
  }
  // The dynamics the matrix exists to cover must stay in the catalog.
  for (const char* required :
       {"steady_uniform", "zipf_sweep", "hot_key_drift", "site_churn"}) {
    EXPECT_NE(FindScenario(required), nullptr) << required;
  }
}

TEST(ScenarioRegistryTest, FindScenarioRoundTrips) {
  for (const ScenarioSpec& s : ScenarioRegistry()) {
    const ScenarioSpec* found = FindScenario(s.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, &s);  // pointer into the registry, not a copy
  }
  EXPECT_EQ(FindScenario("no_such_scenario"), nullptr);
}

TEST(ScenarioRegistryTest, OnlyChurnScenariosCarryChurn) {
  for (const ScenarioSpec& s : ScenarioRegistry()) {
    if (s.has_churn) {
      EXPECT_GT(s.churn.crash_prob, 0.0) << s.name;
    } else {
      EXPECT_EQ(s.churn.crash_prob, 0.0) << s.name;
      EXPECT_EQ(s.churn.drop_prob, 0.0) << s.name;
    }
  }
}

// ---------------------------------------------------------------------
// Seed determinism of every scenario product.

TEST(ScenarioDeterminismTest, WorkloadReplaysBitForBit) {
  for (const ScenarioSpec& s : ScenarioRegistry()) {
    const Workload a = BuildScenarioWorkload(s, /*seed=*/42, /*quick=*/true);
    const Workload b = BuildScenarioWorkload(s, /*seed=*/42, /*quick=*/true);
    ASSERT_EQ(a.size(), s.items_quick) << s.name;
    ASSERT_EQ(a.size(), b.size()) << s.name;
    EXPECT_EQ(a.num_sites(), s.num_sites) << s.name;
    for (uint64_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.event(i).site, b.event(i).site) << s.name << " @" << i;
      ASSERT_EQ(a.event(i).item.id, i) << s.name << " @" << i;
      ASSERT_EQ(a.event(i).item.weight, b.event(i).item.weight)
          << s.name << " @" << i;
    }
  }
}

TEST(ScenarioDeterminismTest, DifferentSeedsProduceDifferentWeights) {
  const ScenarioSpec* s = FindScenario("steady_uniform");
  ASSERT_NE(s, nullptr);
  const Workload a = BuildScenarioWorkload(*s, 1, /*quick=*/true);
  const Workload b = BuildScenarioWorkload(*s, 2, /*quick=*/true);
  uint64_t equal = 0;
  for (uint64_t i = 0; i < a.size(); ++i) {
    equal += (a.event(i).item.weight == b.event(i).item.weight);
  }
  EXPECT_LT(equal, a.size() / 20);
}

TEST(ScenarioDeterminismTest, ChurnMixesRunSeedPreservingSchedule) {
  const ScenarioSpec* s = FindScenario("site_churn");
  ASSERT_NE(s, nullptr);
  const FaultConfig a = ScenarioChurn(*s, 42);
  const FaultConfig b = ScenarioChurn(*s, 42);
  const FaultConfig c = ScenarioChurn(*s, 43);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_NE(a.seed, c.seed);
  EXPECT_NE(a.seed, 42u);  // mixed, not passed through
  EXPECT_EQ(a.crash_prob, s->churn.crash_prob);
  EXPECT_EQ(a.crash_down_items, s->churn.crash_down_items);
  EXPECT_EQ(a.drop_prob, 0.0);
}

// ---------------------------------------------------------------------
// Dynamics units: hot-key drift.

TEST(HotKeyDriftTest, HotWindowMatchesWeights) {
  HotKeyDriftWeights gen(std::make_unique<ConstantWeights>(1.0),
                         /*period=*/8, /*hot_count=*/2,
                         /*heavy_weight=*/50.0, /*rotate_every=*/16);
  Rng rng(3);
  for (uint64_t i = 0; i < 200; ++i) {
    const double w = gen.WeightAt(i, rng);
    EXPECT_DOUBLE_EQ(w, gen.IsHot(i) ? 50.0 : 1.0) << " at " << i;
  }
}

TEST(HotKeyDriftTest, HotFractionIsHotCountOverPeriod) {
  HotKeyDriftWeights gen(std::make_unique<ConstantWeights>(1.0),
                         /*period=*/8, /*hot_count=*/2,
                         /*heavy_weight=*/50.0, /*rotate_every=*/16);
  for (uint64_t phase = 0; phase < 10; ++phase) {
    uint64_t hot = 0;
    for (uint64_t i = phase * 16; i < (phase + 1) * 16; ++i) {
      hot += gen.IsHot(i);
    }
    EXPECT_EQ(hot, 4u) << " phase " << phase;  // 2 of every 8 positions
  }
}

TEST(HotKeyDriftTest, HotResiduesRotateEveryPhase) {
  HotKeyDriftWeights gen(std::make_unique<ConstantWeights>(1.0),
                         /*period=*/8, /*hot_count=*/2,
                         /*heavy_weight=*/50.0, /*rotate_every=*/64);
  std::set<uint64_t> offsets;
  for (uint64_t phase = 0; phase < 8; ++phase) {
    const uint64_t offset = gen.HotOffset(phase);
    EXPECT_LT(offset, 8u);
    offsets.insert(offset);
    EXPECT_NE(offset, gen.HotOffset(phase + 1)) << " phase " << phase;
  }
  // The odd stride is coprime with the power-of-two period, so eight
  // phases visit all eight residue classes.
  EXPECT_EQ(offsets.size(), 8u);
}

TEST(HotKeyDriftTest, ColdWeightsIndependentOfRotationSchedule) {
  // The base generator draws for hot positions too, so the cold weights
  // must be identical across different rotation parameters.
  HotKeyDriftWeights a(std::make_unique<UniformWeights>(1.0, 4.0),
                       /*period=*/8, /*hot_count=*/2, 50.0,
                       /*rotate_every=*/16);
  HotKeyDriftWeights b(std::make_unique<UniformWeights>(1.0, 4.0),
                       /*period=*/8, /*hot_count=*/4, 50.0,
                       /*rotate_every=*/32);
  Rng rng_a(7);
  Rng rng_b(7);
  for (uint64_t i = 0; i < 300; ++i) {
    const double wa = a.WeightAt(i, rng_a);
    const double wb = b.WeightAt(i, rng_b);
    if (!a.IsHot(i) && !b.IsHot(i)) {
      EXPECT_DOUBLE_EQ(wa, wb) << " at " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Dynamics units: Zipf sweep.

TEST(ZipfSweepTest, YcsbScheduleAndPhaseBoundaries) {
  const std::vector<double> expected = {0.5, 0.7, 0.9, 0.99};
  EXPECT_EQ(ZipfSweepWeights::YcsbThetas(), expected);
  ZipfSweepWeights gen(100, ZipfSweepWeights::YcsbThetas(),
                       /*phase_len=*/10);
  EXPECT_DOUBLE_EQ(gen.ThetaAt(0), 0.5);
  EXPECT_DOUBLE_EQ(gen.ThetaAt(9), 0.5);
  EXPECT_DOUBLE_EQ(gen.ThetaAt(10), 0.7);
  EXPECT_DOUBLE_EQ(gen.ThetaAt(29), 0.9);
  EXPECT_DOUBLE_EQ(gen.ThetaAt(39), 0.99);
  EXPECT_DOUBLE_EQ(gen.ThetaAt(40), 0.5);  // schedule cycles
}

TEST(ZipfSweepTest, WeightsAtLeastOneAndSkewGrowsWithTheta) {
  ZipfSweepWeights gen(1000, ZipfSweepWeights::YcsbThetas(),
                       /*phase_len=*/4000);
  Rng rng(11);
  double sum_first = 0.0, sum_last = 0.0;
  // The scaled minimum weight n^theta * n^-theta is 1 up to one ulp of
  // pow(), hence the epsilon.
  for (uint64_t i = 0; i < 4000; ++i) {
    const double w = gen.WeightAt(i, rng);
    EXPECT_GE(w, 1.0 - 1e-9);
    sum_first += w;
  }
  for (uint64_t i = 12000; i < 16000; ++i) {
    const double w = gen.WeightAt(i, rng);
    EXPECT_GE(w, 1.0 - 1e-9);
    sum_last += w;
  }
  // theta=0.99 concentrates mass on low ranks, whose weights are scaled
  // to n^theta — the skewed phase carries much more total weight.
  EXPECT_GT(sum_last, 2.0 * sum_first);
}

// ---------------------------------------------------------------------
// Dynamics units: skewed site ownership.

TEST(SkewedSitePartitionerTest, ProbabilitiesAreNormalizedZipf) {
  const auto probs = SkewedSitePartitioner::SiteProbabilities(8, 1.0);
  ASSERT_EQ(probs.size(), 8u);
  double total = 0.0;
  for (size_t i = 0; i + 1 < probs.size(); ++i) {
    EXPECT_GT(probs[i], probs[i + 1]);  // site 0 is hottest
  }
  for (double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // p_0 = 1 / H_8 with H_8 = 2.717857142857... (the ~37% hot share).
  EXPECT_NEAR(probs[0], 0.36793692509855453, 1e-12);
  EXPECT_NEAR(probs[7], probs[0] / 8.0, 1e-12);
}

TEST(SkewedSitePartitionerTest, OwnershipFractionsMatchChiSquare) {
  SkewedSitePartitioner p(1.0);
  Rng rng(21);
  std::vector<uint64_t> counts(8, 0);
  const uint64_t draws = 20000;
  for (uint64_t i = 0; i < draws; ++i) {
    const int site = p.SiteFor(i, 8, rng);
    ASSERT_GE(site, 0);
    ASSERT_LT(site, 8);
    ++counts[static_cast<size_t>(site)];
  }
  const auto result = ChiSquareAgainstProbabilities(
      counts, SkewedSitePartitioner::SiteProbabilities(8, 1.0), draws);
  EXPECT_GT(result.p_value, 1e-3) << "chi2=" << result.statistic;
}

TEST(SkewedSitePartitionerDeathTest, RejectsVaryingSiteCount) {
  SkewedSitePartitioner p(1.0);
  Rng rng(22);
  p.SiteFor(0, 8, rng);
  EXPECT_DEATH(p.SiteFor(1, 4, rng), "varying k");
}

// ---------------------------------------------------------------------
// Sim <-> engine bit-identity: every scenario, on the step-synchronous
// engine.

bool SameKeyedSample(const std::vector<KeyedItem>& a,
                     const std::vector<KeyedItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item.id != b[i].item.id || a[i].key != b[i].key) return false;
  }
  return true;
}

TEST(ScenarioEngineTest, EveryScenarioReplaysBitIdenticallyOnEngine) {
  for (const ScenarioSpec& s : ScenarioRegistry()) {
    const uint64_t seed = 1234;
    const Workload w = BuildScenarioWorkload(s, seed, /*quick=*/true);

    WsworConfig config;
    config.num_sites = s.num_sites;
    config.sample_size = 8;
    config.seed = seed;
    DistributedWswor sim_sampler(config);
    sim_sampler.Run(w);

    engine::EngineConfig engine_config;
    engine_config.num_sites = s.num_sites;
    engine_config.step_synchronous = true;
    engine::Engine eng(engine_config);
    // The facade's exact seed derivation: one master draw per site in
    // index order, then the coordinator's.
    Rng master(config.seed);
    std::vector<std::unique_ptr<WsworSite>> sites;
    for (int i = 0; i < config.num_sites; ++i) {
      sites.push_back(std::make_unique<WsworSite>(config, i, &eng.transport(),
                                                  master.NextU64()));
      eng.AttachSite(i, sites.back().get());
    }
    WsworCoordinator coordinator(config, &eng.transport(), master.NextU64());
    eng.AttachCoordinator(&coordinator);
    eng.Run(w);

    EXPECT_TRUE(SameKeyedSample(sim_sampler.Sample(), coordinator.Sample()))
        << s.name;
    const sim::MessageStats sim_stats = sim_sampler.stats();
    const sim::MessageStats eng_stats = eng.stats().MessageSnapshot();
    EXPECT_EQ(sim_stats.site_to_coord, eng_stats.site_to_coord) << s.name;
    EXPECT_EQ(sim_stats.coord_to_site, eng_stats.coord_to_site) << s.name;
    EXPECT_EQ(sim_stats.words, eng_stats.words) << s.name;
    eng.Shutdown();
  }
}

TEST(ScenarioEngineTest, ChurnScenarioTranscriptIdenticalAcrossBackends) {
  const ScenarioSpec* s = FindScenario("site_churn");
  ASSERT_NE(s, nullptr);
  const uint64_t seed = 31;
  const Workload w = BuildScenarioWorkload(*s, seed, /*quick=*/true);
  const FaultConfig churn = ScenarioChurn(*s, seed);
  WsworConfig config;
  config.num_sites = s->num_sites;
  config.sample_size = 8;
  config.seed = seed;

  FaultyWswor sim_run(config, churn, Backend::kSim);
  sim_run.Run(w);
  FaultyWswor eng_run(config, churn, Backend::kEngine);
  eng_run.Run(w);

  const RunReport a = sim_run.report();
  const RunReport b = eng_run.report();
  EXPECT_EQ(a.transcript_hash, b.transcript_hash);
  EXPECT_EQ(a.faults_forwarded, b.faults_forwarded);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.clean, b.clean);
  EXPECT_EQ(sim_run.SampleIds(), eng_run.SampleIds());
}

// ---------------------------------------------------------------------
// Chi-square exactness of merged samples under drift and churn,
// S in {1, 4} coordinator shards.

// A 12-item hot-key-drift stream small enough for the exact SWOR set
// distribution: period 4, one hot residue, rotating every 6 items.
Workload DriftWorkload(int num_sites, uint64_t seed) {
  auto drift = std::make_unique<HotKeyDriftWeights>(
      std::make_unique<UniformWeights>(1.0, 3.0), /*period=*/4,
      /*hot_count=*/1, /*heavy_weight=*/20.0, /*rotate_every=*/6);
  return WorkloadBuilder()
      .num_sites(num_sites)
      .num_items(12)
      .seed(seed)
      .weights(std::move(drift))
      .partitioner(std::make_unique<RoundRobinPartitioner>())
      .Build();
}

TEST(ScenarioMergedSampleTest, DriftExactAtOneAndFourShards) {
  const Workload w = DriftWorkload(/*num_sites=*/4, /*seed=*/19);
  std::vector<double> weights;
  for (const auto& e : w.events()) weights.push_back(e.item.weight);
  const int s = 2;
  for (int num_shards : {1, 4}) {
    const std::vector<FaultConfig> no_faults(
        static_cast<size_t>(num_shards));
    const auto result = testing::SworSetGoodnessOfFit(
        weights, s, 4000, [&](int t) {
          WsworConfig config;
          config.num_sites = 4;
          config.sample_size = s;
          config.seed = 400000 + static_cast<uint64_t>(t);
          ShardedFaultyWswor run(config, no_faults, Backend::kSim);
          run.Run(w);
          EXPECT_TRUE(run.report().clean) << " trial " << t;
          return run.MergedSampleIds();
        });
    EXPECT_GT(result.p_value, 1e-4)
        << "S=" << num_shards << " chi2=" << result.statistic;
  }
}

TEST(ScenarioMergedSampleTest, ChurnExactOverSurvivorsAtOneAndFourShards) {
  const Workload w = DriftWorkload(/*num_sites=*/4, /*seed=*/23);
  std::vector<double> weights;
  for (const auto& e : w.events()) weights.push_back(e.item.weight);
  const int s = 2;
  for (int num_shards : {1, 4}) {
    // Fixed crash-only schedules (one per shard): the survivor set is a
    // pure function of (fault seeds, workload), so across protocol seeds
    // the merged sample must be an exact SWOR over exactly the union of
    // per-shard survivors.
    std::vector<FaultConfig> shard_faults(static_cast<size_t>(num_shards));
    for (int j = 0; j < num_shards; ++j) {
      auto& fc = shard_faults[static_cast<size_t>(j)];
      fc.seed = 51 + static_cast<uint64_t>(j);
      fc.crash_prob = 0.12;
      fc.crash_down_items = 2;
    }
    const ShardTopology topology(4, num_shards);
    const std::vector<Workload> splits = SplitByShard(w, topology);
    std::map<uint64_t, uint64_t> survivor_index;
    std::vector<double> survivor_weights;
    for (int j = 0; j < num_shards; ++j) {
      const FaultSchedule schedule(shard_faults[static_cast<size_t>(j)]);
      for (uint64_t id : faults::SurvivingItemIds(
               splits[static_cast<size_t>(j)], schedule)) {
        survivor_index[id] = survivor_weights.size();
        survivor_weights.push_back(weights[id]);
      }
    }
    ASSERT_LT(survivor_weights.size(), weights.size())
        << "S=" << num_shards << ": schedule crashed nothing";
    ASSERT_GE(survivor_weights.size(), 4u) << "S=" << num_shards;

    uint64_t crashes_seen = 0;
    const auto result = testing::SworSetGoodnessOfFit(
        survivor_weights, s, 4000, [&](int t) {
          WsworConfig config;
          config.num_sites = 4;
          config.sample_size = s;
          config.seed = 500000 + static_cast<uint64_t>(t);
          ShardedFaultyWswor run(config, shard_faults, Backend::kSim);
          run.Run(w);
          const RunReport report = run.report();
          EXPECT_TRUE(report.clean) << " trial " << t;
          crashes_seen += report.crashes;
          std::vector<uint64_t> remapped;
          for (uint64_t id : run.MergedSampleIds()) {
            auto it = survivor_index.find(id);
            // Sampling a crashed-away item would be a silent wrong
            // answer — the failure mode the churn scenarios gate.
            EXPECT_TRUE(it != survivor_index.end())
                << " sampled lost item " << id << " trial " << t;
            remapped.push_back(it->second);
          }
          return remapped;
        });
    EXPECT_GT(crashes_seen, 0u) << "S=" << num_shards;
    EXPECT_GT(result.p_value, 1e-4)
        << "S=" << num_shards << " chi2=" << result.statistic;
  }
}

// ---------------------------------------------------------------------
// 25-seed churn sweep with message loss: degraded runs are flagged,
// never silently wrong.

TEST(ScenarioChurnSweepTest, DegradedRunsFlaggedNeverSilentlyWrong) {
  const ScenarioSpec* spec = FindScenario("site_churn");
  ASSERT_NE(spec, nullptr);
  const Workload w = BuildScenarioWorkload(*spec, /*seed=*/8, /*quick=*/true);
  int clean_runs = 0, degraded_runs = 0;
  for (uint64_t sweep_seed = 0; sweep_seed < 25; ++sweep_seed) {
    // The scenario's churn schedule, intensified with message loss so a
    // crash can wipe in-flight state. A third of the seeds crash sites
    // (boosted above the scenario's rarity — with ~15% drop a crash
    // almost always wipes something); the rest are crash-free, so the
    // sweep covers clean and detectably-degraded outcomes.
    FaultConfig fc = ScenarioChurn(*spec, sweep_seed);
    fc.crash_prob = (sweep_seed % 3 == 0) ? 0.01 : 0.0;
    fc.drop_prob = 0.15;
    fc.delay_prob = 0.10;

    WsworConfig config;
    config.num_sites = spec->num_sites;
    config.sample_size = 8;
    config.seed = 700 + sweep_seed;
    FaultyWswor run(config, fc, Backend::kSim);
    run.Run(w);
    const RunReport report = run.report();

    // Never silently wrong: the sample may not contain an item only a
    // dead site saw, whether or not the run degraded.
    const FaultSchedule schedule(fc);
    const std::vector<uint64_t> survivors =
        faults::SurvivingItemIds(w, schedule);
    const std::set<uint64_t> survivor_set(survivors.begin(),
                                          survivors.end());
    for (uint64_t id : run.SampleIds()) {
      EXPECT_TRUE(survivor_set.count(id) != 0)
          << " sampled crashed-away item " << id << " at sweep seed "
          << sweep_seed;
    }

    if (report.clean) {
      ++clean_runs;
    } else {
      ++degraded_runs;
      // Degradation is always attributable to counted loss.
      EXPECT_GT(report.lost_unacked, 0u) << " sweep seed " << sweep_seed;
      EXPECT_GT(report.crashes, 0u) << " sweep seed " << sweep_seed;
    }
  }
  // The sweep must exercise both outcomes to have teeth.
  EXPECT_GT(clean_runs, 0);
  EXPECT_GT(degraded_runs, 0);
}

}  // namespace
}  // namespace dwrs
