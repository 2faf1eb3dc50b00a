#include "stream/scenario.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace dwrs {
namespace {

// Decorrelates a derived seed (churn) from the workload seed so that the
// crash schedule never aliases the weight draws. The stream id is part
// of every recorded churn schedule: changing it changes every site_churn
// cell in bench/envelopes.json.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream_id) {
  uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (stream_id + 1));
  return SplitMix64(&state);
}

std::vector<ScenarioSpec> BuildRegistry() {
  std::vector<ScenarioSpec> out;

  // 1. Steady baseline: the static workload every existing bench runs —
  // anchors the matrix so envelope drift on dynamics-free streams is
  // caught separately from drift under dynamics.
  {
    ScenarioSpec s;
    s.name = "steady_uniform";
    s.description = "uniform weights, round-robin sites, constant rate";
    s.make_weights = [](uint64_t) {
      return std::make_unique<UniformWeights>(1.0, 100.0);
    };
    s.make_partitioner = [] { return std::make_unique<RoundRobinPartitioner>(); };
    out.push_back(std::move(s));
  }

  // 2. YCSB skew sweep: theta steps through {0.5, 0.7, 0.9, 0.99} in four
  // equal phases of the stream.
  {
    ScenarioSpec s;
    s.name = "zipf_sweep";
    s.description = "Zipf theta sweep 0.5->0.99 in four phases, random sites";
    s.make_weights = [](uint64_t n) {
      const auto thetas = ZipfSweepWeights::YcsbThetas();
      const uint64_t phase_len =
          std::max<uint64_t>(1, n / thetas.size());
      return std::make_unique<ZipfSweepWeights>(/*num_ranks=*/1000, thetas,
                                                phase_len);
    };
    s.make_partitioner = [] { return std::make_unique<RandomPartitioner>(); };
    out.push_back(std::move(s));
  }

  // 3. Hot-key drift: a rotating heavy cohort over a uniform floor. Each
  // rotation forces the coordinator's level sets to absorb a fresh heavy
  // set, the dynamic the static planted-heavy stream never exercises.
  {
    ScenarioSpec s;
    s.name = "hot_key_drift";
    s.description = "rotating heavy residue class over a uniform floor";
    s.make_weights = [](uint64_t n) {
      auto base = std::make_unique<UniformWeights>(1.0, 4.0);
      const uint64_t rotate_every = std::max<uint64_t>(1, n / 8);
      return std::make_unique<HotKeyDriftWeights>(
          std::move(base), /*period=*/64, /*hot_count=*/4,
          /*heavy_weight=*/400.0, rotate_every);
    };
    s.make_partitioner = [] { return std::make_unique<RandomPartitioner>(); };
    out.push_back(std::move(s));
  }

  // 4. Zipf(0.9)-skewed weights over random sites: one fixed skew, where
  // zipf_sweep moves through four. The name keys the scenario's rows in
  // bench/envelopes.json.
  {
    ScenarioSpec s;
    s.name = "diurnal_zipf";
    s.description = "Zipf(0.9) weights, random sites";
    s.make_weights = [](uint64_t) {
      return std::make_unique<ZipfWeights>(/*num_ranks=*/1000, /*alpha=*/0.9);
    };
    s.make_partitioner = [] { return std::make_unique<RandomPartitioner>(); };
    out.push_back(std::move(s));
  }

  // 5. Bursty hot site: heavy-tailed weights, and all traffic on one hot
  // site that hops every 97 items, so each site sees its items in bursts.
  {
    ScenarioSpec s;
    s.name = "bursty_hotsite";
    s.description = "Pareto weights, hopping hot site";
    s.make_weights = [](uint64_t) {
      return std::make_unique<ParetoWeights>(/*alpha=*/1.5);
    };
    s.make_partitioner = [] {
      return std::make_unique<AdversarialPartitioner>(/*hop_every=*/97);
    };
    out.push_back(std::move(s));
  }

  // 6. Skewed site ownership: Zipf(1.0) item->site law — site 0 owns
  // ~37% of an 8-site stream, the statistically-typical imbalance.
  {
    ScenarioSpec s;
    s.name = "skewed_sites";
    s.description = "uniform weights, Zipf(1.0) site ownership";
    s.make_weights = [](uint64_t) {
      return std::make_unique<UniformWeights>(1.0, 100.0);
    };
    s.make_partitioner = [] {
      return std::make_unique<SkewedSitePartitioner>(/*theta=*/1.0);
    };
    out.push_back(std::move(s));
  }

  // 7. Site churn: sites crash mid-stream, drop their volatile state, and
  // rejoin via the resync path. Runs that lose items must be flagged
  // degraded by the harness (never silently wrong); clean runs must stay
  // exact over the survivor set.
  {
    ScenarioSpec s;
    s.name = "site_churn";
    s.description = "uniform weights, sites crash and resync mid-stream";
    s.make_weights = [](uint64_t) {
      return std::make_unique<UniformWeights>(1.0, 100.0);
    };
    s.make_partitioner = [] { return std::make_unique<RoundRobinPartitioner>(); };
    s.has_churn = true;
    s.churn.crash_prob = 0.002;
    s.churn.crash_down_items = 6;
    out.push_back(std::move(s));
  }

  return out;
}

}  // namespace

const std::vector<ScenarioSpec>& ScenarioRegistry() {
  static const std::vector<ScenarioSpec>* registry =
      new std::vector<ScenarioSpec>(BuildRegistry());
  return *registry;
}

const ScenarioSpec* FindScenario(const std::string& name) {
  for (const ScenarioSpec& s : ScenarioRegistry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Workload BuildScenarioWorkload(const ScenarioSpec& spec, uint64_t seed,
                               bool quick) {
  DWRS_CHECK(spec.make_weights != nullptr);
  DWRS_CHECK(spec.make_partitioner != nullptr);
  const uint64_t n = quick ? spec.items_quick : spec.items_full;
  return WorkloadBuilder()
      .num_sites(spec.num_sites)
      .num_items(n)
      .seed(seed)
      .weights(spec.make_weights(n))
      .partitioner(spec.make_partitioner())
      .Build();
}

faults::FaultConfig ScenarioChurn(const ScenarioSpec& spec, uint64_t seed) {
  faults::FaultConfig config = spec.churn;
  config.seed = DeriveSeed(seed, /*stream_id=*/2);
  return config;
}

}  // namespace dwrs
