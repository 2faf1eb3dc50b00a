// E10 — the scenario matrix: every protocol facade x every scenario in
// the registry (stream/scenario.h), on both execution backends, with the
// accuracy and message-cost of every cell emitted as one JSON row.
// tools/check_bench.py gates the rows against bench/envelopes.json in CI,
// so "the distributional guarantees and message bounds hold under
// temporal dynamics, skewed ownership, a hopping hot site, and site
// churn" is a standing regression-checked statement.
//
// Per-cell accuracy metrics (cheap enough for a matrix, exact laws):
//   wswor/naive  argmax item ~ w_i/W (chi-square) and the max key
//                ~ Frechet exp(-W/x) (KS) — both exact for weighted SWOR.
//   uswor        membership counts uniform s/n (chi-square).
//   swr          every race winner iid ~ w_i/W (chi-square over T*s draws).
//   l1           relative error of W-hat (median/max over trials).
//
// Engine rows run Engine::Run step-synchronously and are gated on
// bit-identity with the simulator — sample, keys, and every traffic
// counter — so the accuracy measured on the sim rows transfers verbatim
// and the gate never flakes on interleavings.
//
// Site churn cells run through faults::FaultyRun (crash/resync path):
// clean trials must be chi-square-exact over the deterministic survivor
// set, lossy trials must be flagged degraded, and a clean trial whose
// sample strays outside the survivor set counts as silent_wrong — gated
// to exactly zero. naive (reliable transport required) and swr (no fault
// traits) run the reliable path on churn scenarios with churn_applied=0.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/deployment.h"
#include "stats/chi_square.h"
#include "stats/ks_test.h"
#include "stream/dynamics.h"
#include "stream/scenario.h"

namespace {

using namespace dwrs;
using namespace dwrs::bench;

constexpr int kSampleSize = 16;

struct CellParams {
  int trials_sim = 0;
  int trials_engine = 0;
};

// One matrix cell's measurements; -1 marks a metric the protocol does not
// produce (the field is then omitted from the row).
struct CellResult {
  double chisq_p = -1.0;
  double ks_p = -1.0;
  double rel_err_med = -1.0;
  double rel_err_max = -1.0;
  double messages_mean = 0.0;
  uint64_t messages_max = 0;
  bool churn_applied = false;
  int trials = 0;
  int clean_trials = -1;
  int degraded_trials = -1;
  int silent_wrong = -1;
  int bit_identical = -1;  // engine rows only
};

WsworConfig WsworConfigFor(const ScenarioSpec& spec, uint64_t seed) {
  return WsworConfig{.num_sites = spec.num_sites, .sample_size = kSampleSize,
                     .seed = seed};
}

UsworConfig UsworConfigFor(const ScenarioSpec& spec, uint64_t seed) {
  return UsworConfig{.num_sites = spec.num_sites, .sample_size = kSampleSize,
                     .seed = seed};
}

SlottedSwrConfig SwrConfigFor(const ScenarioSpec& spec, uint64_t seed) {
  return SlottedSwrConfig{.num_sites = spec.num_sites,
                          .sample_size = kSampleSize, .seed = seed};
}

L1TrackerConfig L1ConfigFor(const ScenarioSpec& spec, uint64_t seed) {
  return L1TrackerConfig{.num_sites = spec.num_sites, .eps = 0.25,
                         .delta = 0.2, .seed = seed};
}

uint64_t CellSeed(size_t scenario_index, size_t protocol_index, int trial) {
  return 100000 + 10000 * scenario_index + 1000 * protocol_index +
         static_cast<uint64_t>(trial);
}

// id -> dense cell index over `ids` (workload item ids are stream
// positions, but churn survivor sets are sparse subsets).
std::map<uint64_t, size_t> CellIndex(const std::vector<uint64_t>& ids) {
  std::map<uint64_t, size_t> index;
  for (uint64_t id : ids) index.emplace(id, index.size());
  return index;
}

std::vector<double> NormalizedWeights(const Workload& w,
                                      const std::vector<uint64_t>& ids) {
  std::vector<double> probs;
  probs.reserve(ids.size());
  double total = 0.0;
  for (uint64_t id : ids) {
    probs.push_back(w.event(id).item.weight);
    total += probs.back();
  }
  for (double& p : probs) p /= total;
  return probs;
}

std::vector<uint64_t> AllIds(const Workload& w) {
  std::vector<uint64_t> ids;
  ids.reserve(w.size());
  for (uint64_t i = 0; i < w.size(); ++i) ids.push_back(w.event(i).item.id);
  return ids;
}

const KeyedItem& ArgmaxEntry(const std::vector<KeyedItem>& sample) {
  DWRS_CHECK(!sample.empty());
  size_t best = 0;
  for (size_t i = 1; i < sample.size(); ++i) {
    if (sample[i].key > sample[best].key) best = i;
  }
  return sample[best];
}

void TrackMessages(CellResult& cell, uint64_t messages) {
  cell.messages_mean += static_cast<double>(messages);
  cell.messages_max = std::max(cell.messages_max, messages);
}

double FrechetKsPValue(std::vector<double> max_keys, double total_weight) {
  return KsTest(std::move(max_keys),
                [total_weight](double x) {
                  return x <= 0.0 ? 0.0 : std::exp(-total_weight / x);
                })
      .p_value;
}

void FinishMedianMax(CellResult& cell, std::vector<double>& errs) {
  std::sort(errs.begin(), errs.end());
  cell.rel_err_med = errs[errs.size() / 2];
  cell.rel_err_max = errs.back();
}

// --- reliable sim cells -----------------------------------------------

CellResult SimCellWswor(const ScenarioSpec& spec, const Workload& w,
                        size_t si, size_t pi, int trials, bool naive) {
  CellResult cell;
  cell.trials = trials;
  const auto probs = NormalizedWeights(w, AllIds(w));
  const double total = w.TotalWeight();
  std::vector<uint64_t> counts(w.size(), 0);
  std::vector<double> max_keys;
  for (int t = 0; t < trials; ++t) {
    const uint64_t seed = CellSeed(si, pi, t);
    std::vector<KeyedItem> sample;
    if (naive) {
      NaiveDistributedWswor sampler(spec.num_sites, kSampleSize, seed);
      sampler.Run(w);
      sample = sampler.Sample();
      TrackMessages(cell, sampler.stats().total_messages());
    } else {
      DistributedWswor sampler(WsworConfigFor(spec, seed));
      sampler.Run(w);
      sample = sampler.Sample();
      TrackMessages(cell, sampler.stats().total_messages());
    }
    const KeyedItem& top = ArgmaxEntry(sample);
    ++counts[top.item.id];
    max_keys.push_back(top.key);
  }
  cell.messages_mean /= trials;
  cell.chisq_p = ChiSquareAgainstProbabilities(
                     counts, probs, static_cast<uint64_t>(trials))
                     .p_value;
  cell.ks_p = FrechetKsPValue(std::move(max_keys), total);
  return cell;
}

CellResult SimCellUswor(const ScenarioSpec& spec, const Workload& w,
                        size_t si, size_t pi, int trials) {
  CellResult cell;
  cell.trials = trials;
  std::vector<uint64_t> counts(w.size(), 0);
  for (int t = 0; t < trials; ++t) {
    DistributedUnweightedSwor sampler(
        UsworConfigFor(spec, CellSeed(si, pi, t)));
    sampler.Run(w);
    for (const Item& item : sampler.Sample()) ++counts[item.id];
    TrackMessages(cell, sampler.stats().total_messages());
  }
  cell.messages_mean /= trials;
  const std::vector<double> uniform(w.size(), 1.0 / w.size());
  cell.chisq_p = ChiSquareAgainstProbabilities(
                     counts, uniform,
                     static_cast<uint64_t>(trials) * kSampleSize)
                     .p_value;
  return cell;
}

CellResult SimCellSwr(const ScenarioSpec& spec, const Workload& w,
                      size_t si, size_t pi, int trials) {
  CellResult cell;
  cell.trials = trials;
  const auto probs = NormalizedWeights(w, AllIds(w));
  std::vector<uint64_t> counts(w.size(), 0);
  for (int t = 0; t < trials; ++t) {
    DistributedSwr sampler(SwrConfigFor(spec, CellSeed(si, pi, t)));
    sampler.Run(w);
    for (const Item& item : sampler.Sample()) ++counts[item.id];
    TrackMessages(cell, sampler.stats().total_messages());
  }
  cell.messages_mean /= trials;
  cell.chisq_p = ChiSquareAgainstProbabilities(
                     counts, probs,
                     static_cast<uint64_t>(trials) * kSampleSize)
                     .p_value;
  return cell;
}

CellResult SimCellL1(const ScenarioSpec& spec, const Workload& w, size_t si,
                     size_t pi, int trials) {
  CellResult cell;
  cell.trials = trials;
  const double total = w.TotalWeight();
  std::vector<double> errs;
  for (int t = 0; t < trials; ++t) {
    L1Tracker tracker(L1ConfigFor(spec, CellSeed(si, pi, t)));
    tracker.Run(w);
    errs.push_back(std::abs(tracker.Estimate() - total) / total);
    TrackMessages(cell, tracker.stats().total_messages());
  }
  cell.messages_mean /= trials;
  FinishMedianMax(cell, errs);
  return cell;
}

// --- churn sim cells (crash/resync through the fault harness) ---------

template <typename Traits, typename Config, typename PerCleanTrial>
CellResult ChurnCell(const Workload& w, const faults::FaultConfig& churn,
                     size_t si, size_t pi, int trials,
                     const std::vector<uint64_t>& survivors,
                     const std::function<Config(uint64_t)>& make_config,
                     const PerCleanTrial& per_clean_trial) {
  CellResult cell;
  cell.trials = trials;
  cell.churn_applied = true;
  cell.clean_trials = 0;
  cell.degraded_trials = 0;
  cell.silent_wrong = 0;
  const auto survivor_index = CellIndex(survivors);
  for (int t = 0; t < trials; ++t) {
    faults::FaultyRun<Traits> run(make_config(CellSeed(si, pi, t)), churn,
                                  faults::Backend::kSim);
    run.Run(w);
    const faults::RunReport report = run.report();
    TrackMessages(cell, report.faults_forwarded);
    if (!report.clean) {
      ++cell.degraded_trials;
      continue;
    }
    ++cell.clean_trials;
    bool in_survivors = true;
    for (uint64_t id : run.SampleIds()) {
      if (!survivor_index.count(id)) in_survivors = false;
    }
    if (!in_survivors) {
      ++cell.silent_wrong;  // clean yet outside the survivor set: silent
      continue;
    }
    per_clean_trial(run, cell, survivor_index);
  }
  cell.messages_mean /= trials;
  return cell;
}

CellResult ChurnCellWswor(const ScenarioSpec& spec, const Workload& w,
                          const faults::FaultConfig& churn, size_t si,
                          size_t pi, int trials,
                          const std::vector<uint64_t>& survivors) {
  std::vector<uint64_t> counts(survivors.size(), 0);
  std::vector<double> max_keys;
  const std::function<WsworConfig(uint64_t)> make_config =
      [&](uint64_t seed) { return WsworConfigFor(spec, seed); };
  CellResult cell = ChurnCell<faults::WsworFaultTraits, WsworConfig>(
      w, churn, si, pi, trials, survivors, make_config,
      [&](const faults::FaultyWswor& run, CellResult&,
          const std::map<uint64_t, size_t>& survivor_index) {
        const std::vector<KeyedItem> sample = run.coordinator().Sample();
        const KeyedItem& top = ArgmaxEntry(sample);
        ++counts[survivor_index.at(top.item.id)];
        max_keys.push_back(top.key);
      });
  const auto probs = NormalizedWeights(w, survivors);
  double survivor_weight = 0.0;
  for (uint64_t id : survivors) survivor_weight += w.event(id).item.weight;
  cell.chisq_p = ChiSquareAgainstProbabilities(
                     counts, probs,
                     static_cast<uint64_t>(cell.clean_trials))
                     .p_value;
  cell.ks_p = FrechetKsPValue(std::move(max_keys), survivor_weight);
  return cell;
}

CellResult ChurnCellUswor(const ScenarioSpec& spec, const Workload& w,
                          const faults::FaultConfig& churn, size_t si,
                          size_t pi, int trials,
                          const std::vector<uint64_t>& survivors) {
  std::vector<uint64_t> counts(survivors.size(), 0);
  const std::function<UsworConfig(uint64_t)> make_config =
      [&](uint64_t seed) { return UsworConfigFor(spec, seed); };
  CellResult cell = ChurnCell<faults::UsworFaultTraits, UsworConfig>(
      w, churn, si, pi, trials, survivors, make_config,
      [&](const faults::FaultyUswor& run, CellResult&,
          const std::map<uint64_t, size_t>& survivor_index) {
        for (uint64_t id : run.SampleIds()) {
          ++counts[survivor_index.at(id)];
        }
      });
  const std::vector<double> uniform(survivors.size(),
                                    1.0 / survivors.size());
  cell.chisq_p =
      ChiSquareAgainstProbabilities(
          counts, uniform,
          static_cast<uint64_t>(cell.clean_trials) * kSampleSize)
          .p_value;
  return cell;
}

CellResult ChurnCellL1(const ScenarioSpec& spec, const Workload& w,
                       const faults::FaultConfig& churn, size_t si, size_t pi,
                       int trials, const std::vector<uint64_t>& survivors) {
  double survivor_weight = 0.0;
  for (uint64_t id : survivors) survivor_weight += w.event(id).item.weight;
  std::vector<double> errs;
  const L1TrackerConfig proto = L1ConfigFor(spec, 0);
  const std::function<L1TrackerConfig(uint64_t)> make_config =
      [&](uint64_t seed) { return L1ConfigFor(spec, seed); };
  CellResult cell = ChurnCell<faults::L1FaultTraits, L1TrackerConfig>(
      w, churn, si, pi, trials, survivors, make_config,
      [&](const faults::FaultyL1& run, CellResult&,
          const std::map<uint64_t, size_t>&) {
        const double estimate = L1EstimateFromThreshold(
            proto, run.coordinator().Threshold());
        errs.push_back(std::abs(estimate - survivor_weight) /
                       survivor_weight);
      });
  if (!errs.empty()) FinishMedianMax(cell, errs);
  return cell;
}

// --- engine cells: bit-identity with the simulator --------------------

bool SameStats(const sim::MessageStats& a, const sim::MessageStats& b) {
  if (a.site_to_coord != b.site_to_coord) return false;
  if (a.coord_to_site != b.coord_to_site) return false;
  if (a.words != b.words) return false;
  for (size_t i = 0; i < a.by_type.size(); ++i) {
    if (a.by_type[i] != b.by_type[i]) return false;
  }
  return true;
}

bool SameKeyedSample(const std::vector<KeyedItem>& a,
                     const std::vector<KeyedItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item.id != b[i].item.id || a[i].key != b[i].key) return false;
  }
  return true;
}

bool SameItemIds(const std::vector<Item>& a, const std::vector<Item>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
  }
  return true;
}

// Each Engine*Identical builds the protocol's endpoints on an engine
// through sim::Deploy, as its sim facade does, replays the scenario
// step-synchronously (any on_step hook makes Engine::Run quiesce per
// event), and compares sample + every traffic counter against the
// facade.
void StepSync(uint64_t) {}

bool EngineWsworIdentical(const ScenarioSpec& spec, const Workload& w,
                          uint64_t seed, uint64_t* messages) {
  const WsworConfig config = WsworConfigFor(spec, seed);
  DistributedWswor sim_sampler(config);
  sim_sampler.Run(w);

  engine::Engine eng({.num_sites = spec.num_sites});
  const auto endpoints = sim::Deploy(
      eng, config.seed,
      [&](int i, sim::Transport* transport, uint64_t site_seed) {
        return std::make_unique<WsworSite>(config, i, transport, site_seed);
      },
      [&](sim::Transport* transport, uint64_t coordinator_seed) {
        return std::make_unique<WsworCoordinator>(config, transport,
                                                  coordinator_seed);
      });
  const auto& coordinator = endpoints.coordinator;
  eng.Run(w, StepSync);
  const bool same =
      SameKeyedSample(sim_sampler.Sample(), coordinator->Sample()) &&
      SameStats(sim_sampler.stats(), eng.stats().MessageSnapshot());
  *messages = eng.stats().MessageSnapshot().total_messages();
  eng.Shutdown();
  return same;
}

bool EngineNaiveIdentical(const ScenarioSpec& spec, const Workload& w,
                          uint64_t seed, uint64_t* messages) {
  NaiveDistributedWswor sim_sampler(spec.num_sites, kSampleSize, seed);
  sim_sampler.Run(w);

  engine::Engine eng({.num_sites = spec.num_sites});
  const auto endpoints = sim::Deploy(
      eng, seed,
      [](int i, sim::Transport* transport, uint64_t site_seed) {
        return std::make_unique<NaiveWsworSite>(kSampleSize, i, transport,
                                                site_seed);
      },
      [](sim::Transport*, uint64_t) {
        return std::make_unique<NaiveWsworCoordinator>(kSampleSize);
      });
  const NaiveWsworCoordinator& coordinator = *endpoints.coordinator;
  eng.Run(w, StepSync);
  const bool same =
      SameKeyedSample(sim_sampler.Sample(), coordinator.Sample()) &&
      SameStats(sim_sampler.stats(), eng.stats().MessageSnapshot());
  *messages = eng.stats().MessageSnapshot().total_messages();
  eng.Shutdown();
  return same;
}

bool EngineUsworIdentical(const ScenarioSpec& spec, const Workload& w,
                          uint64_t seed, uint64_t* messages) {
  const UsworConfig config = UsworConfigFor(spec, seed);
  DistributedUnweightedSwor sim_sampler(config);
  sim_sampler.Run(w);

  engine::Engine eng({.num_sites = spec.num_sites});
  const auto endpoints = sim::Deploy(
      eng, config.seed,
      [&](int i, sim::Transport* transport, uint64_t site_seed) {
        return std::make_unique<UsworSite>(config, i, transport, site_seed);
      },
      [&](sim::Transport* transport, uint64_t) {
        return std::make_unique<UsworCoordinator>(config, transport);
      });
  const UsworCoordinator& coordinator = *endpoints.coordinator;
  eng.Run(w, StepSync);
  const bool same =
      SameItemIds(sim_sampler.Sample(), coordinator.Sample()) &&
      SameStats(sim_sampler.stats(), eng.stats().MessageSnapshot());
  *messages = eng.stats().MessageSnapshot().total_messages();
  eng.Shutdown();
  return same;
}

bool EngineSwrIdentical(const ScenarioSpec& spec, const Workload& w,
                        uint64_t seed, uint64_t* messages) {
  const SlottedSwrConfig config = SwrConfigFor(spec, seed);
  DistributedSwr sim_sampler(config);
  sim_sampler.Run(w);

  engine::Engine eng({.num_sites = spec.num_sites});
  const auto endpoints = sim::Deploy(
      eng, config.seed,
      [&](int i, sim::Transport* transport, uint64_t site_seed) {
        return std::make_unique<SlottedSwrSite>(config, i, transport,
                                                site_seed);
      },
      [&](sim::Transport* transport, uint64_t) {
        return std::make_unique<SlottedSwrCoordinator>(config, transport);
      });
  const SlottedSwrCoordinator& coordinator = *endpoints.coordinator;
  eng.Run(w, StepSync);
  const bool same =
      SameItemIds(sim_sampler.Sample(), coordinator.Sample()) &&
      SameStats(sim_sampler.stats(), eng.stats().MessageSnapshot());
  *messages = eng.stats().MessageSnapshot().total_messages();
  eng.Shutdown();
  return same;
}

bool EngineL1Identical(const ScenarioSpec& spec, const Workload& w,
                       uint64_t seed, uint64_t* messages) {
  const L1TrackerConfig config = L1ConfigFor(spec, seed);
  L1Tracker sim_tracker(config);
  sim_tracker.Run(w);

  engine::Engine eng({.num_sites = spec.num_sites});
  const auto endpoints = sim::Deploy(
      eng, config.seed,
      [&](int i, sim::Transport* transport, uint64_t site_seed) {
        return std::make_unique<L1Site>(config, i, transport, site_seed);
      },
      [&](sim::Transport* transport, uint64_t coordinator_seed) {
        return std::make_unique<WsworCoordinator>(
            L1CoordinatorConfig(config), transport, coordinator_seed);
      });
  const WsworCoordinator& coordinator = *endpoints.coordinator;
  eng.Run(w, StepSync);
  const double engine_estimate =
      L1EstimateFromThreshold(config, coordinator.Threshold());
  const bool same =
      engine_estimate == sim_tracker.Estimate() &&
      SameStats(sim_tracker.stats(), eng.stats().MessageSnapshot());
  *messages = eng.stats().MessageSnapshot().total_messages();
  eng.Shutdown();
  return same;
}

template <typename Traits, typename Config>
bool EngineChurnIdentical(const Config& config,
                          const faults::FaultConfig& churn, const Workload& w,
                          uint64_t* messages) {
  faults::FaultyRun<Traits> sim_run(config, churn, faults::Backend::kSim);
  sim_run.Run(w);
  faults::FaultyRun<Traits> engine_run(config, churn,
                                       faults::Backend::kEngine);
  engine_run.Run(w);
  const faults::RunReport a = sim_run.report();
  const faults::RunReport b = engine_run.report();
  *messages = b.faults_forwarded;
  return a.transcript_hash == b.transcript_hash &&
         a.faults_forwarded == b.faults_forwarded && a.clean == b.clean &&
         sim_run.SampleIds() == engine_run.SampleIds();
}

CellResult EngineCell(const ScenarioSpec& spec, const Workload& w,
                      const faults::FaultConfig& churn,
                      const std::string& protocol, size_t si, size_t pi,
                      int trials) {
  CellResult cell;
  cell.trials = trials;
  cell.bit_identical = 1;
  const bool churn_cell =
      spec.has_churn &&
      (protocol == "wswor" || protocol == "uswor" || protocol == "l1");
  cell.churn_applied = churn_cell;
  for (int t = 0; t < trials; ++t) {
    const uint64_t seed = CellSeed(si, pi, t);
    uint64_t messages = 0;
    bool same = false;
    if (churn_cell) {
      if (protocol == "wswor") {
        same = EngineChurnIdentical<faults::WsworFaultTraits>(
            WsworConfigFor(spec, seed), churn, w, &messages);
      } else if (protocol == "uswor") {
        same = EngineChurnIdentical<faults::UsworFaultTraits>(
            UsworConfigFor(spec, seed), churn, w, &messages);
      } else {
        same = EngineChurnIdentical<faults::L1FaultTraits>(
            L1ConfigFor(spec, seed), churn, w, &messages);
      }
    } else if (protocol == "wswor") {
      same = EngineWsworIdentical(spec, w, seed, &messages);
    } else if (protocol == "naive") {
      same = EngineNaiveIdentical(spec, w, seed, &messages);
    } else if (protocol == "uswor") {
      same = EngineUsworIdentical(spec, w, seed, &messages);
    } else if (protocol == "swr") {
      same = EngineSwrIdentical(spec, w, seed, &messages);
    } else {
      same = EngineL1Identical(spec, w, seed, &messages);
    }
    if (!same) cell.bit_identical = 0;
    TrackMessages(cell, messages);
  }
  cell.messages_mean /= trials;
  return cell;
}

void EmitRow(JsonBench& bench, const ScenarioSpec& spec,
             const std::string& protocol, const std::string& backend,
             uint64_t items, const CellResult& cell) {
  bench.StartRow()
      .Field("scenario", spec.name)
      .Field("protocol", protocol)
      .Field("backend", backend)
      .Field("items", items)
      .Field("sites", static_cast<uint64_t>(spec.num_sites))
      .Field("trials", static_cast<uint64_t>(cell.trials))
      .Field("churn_applied", static_cast<uint64_t>(cell.churn_applied))
      .Field("messages_mean", cell.messages_mean)
      .Field("messages_max", cell.messages_max);
  if (cell.chisq_p >= 0) bench.Field("chisq_p", cell.chisq_p);
  if (cell.ks_p >= 0) bench.Field("ks_p", cell.ks_p);
  if (cell.rel_err_med >= 0) bench.Field("rel_err_med", cell.rel_err_med);
  if (cell.rel_err_max >= 0) bench.Field("rel_err_max", cell.rel_err_max);
  if (cell.clean_trials >= 0) {
    bench.Field("clean_trials", static_cast<uint64_t>(cell.clean_trials))
        .Field("degraded_trials",
               static_cast<uint64_t>(cell.degraded_trials))
        .Field("silent_wrong", static_cast<uint64_t>(cell.silent_wrong));
  }
  if (cell.bit_identical >= 0) {
    bench.Field("bit_identical", static_cast<uint64_t>(cell.bit_identical));
  }
  Row("%-16s %-6s %-7s msgs=%-9.1f chisq_p=%-7.4f ks_p=%-7.4f "
      "rel_err_max=%-7.4f clean=%d degraded=%d silent=%d bitid=%d",
      spec.name.c_str(), protocol.c_str(), backend.c_str(),
      cell.messages_mean, cell.chisq_p, cell.ks_p, cell.rel_err_max,
      cell.clean_trials, cell.degraded_trials, cell.silent_wrong,
      cell.bit_identical);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const CellParams params{.trials_sim = quick ? 150 : 400,
                          .trials_engine = quick ? 3 : 6};

  Header("E10: scenario matrix — protocols x scenarios x backends",
         "accuracy laws and message costs hold under temporal dynamics, "
         "skewed ownership, a hopping hot site, and site churn");

  JsonBench bench("scenarios");
  bench.Param("quick", quick ? 1.0 : 0.0)
      .Param("sample_size", static_cast<double>(kSampleSize))
      .Param("trials_sim", static_cast<double>(params.trials_sim))
      .Param("trials_engine", static_cast<double>(params.trials_engine));

  const std::vector<std::string> protocols = {"wswor", "naive", "uswor",
                                              "swr", "l1"};
  const auto& registry = dwrs::ScenarioRegistry();
  for (size_t si = 0; si < registry.size(); ++si) {
    const dwrs::ScenarioSpec& spec = registry[si];
    const uint64_t workload_seed = 9000 + 37 * si;
    const dwrs::Workload w =
        dwrs::BuildScenarioWorkload(spec, workload_seed, quick);
    const dwrs::faults::FaultConfig churn =
        dwrs::ScenarioChurn(spec, workload_seed);
    std::vector<uint64_t> survivors;
    if (spec.has_churn) {
      survivors =
          dwrs::faults::SurvivingItemIds(w, dwrs::faults::FaultSchedule(churn));
    }

    for (size_t pi = 0; pi < protocols.size(); ++pi) {
      const std::string& protocol = protocols[pi];
      const bool churn_cell =
          spec.has_churn && (protocol == "wswor" || protocol == "uswor" ||
                             protocol == "l1");
      CellResult sim_cell;
      if (churn_cell && protocol == "wswor") {
        sim_cell = ChurnCellWswor(spec, w, churn, si, pi, params.trials_sim,
                                  survivors);
      } else if (churn_cell && protocol == "uswor") {
        sim_cell = ChurnCellUswor(spec, w, churn, si, pi, params.trials_sim,
                                  survivors);
      } else if (churn_cell) {
        sim_cell =
            ChurnCellL1(spec, w, churn, si, pi, params.trials_sim, survivors);
      } else if (protocol == "wswor" || protocol == "naive") {
        sim_cell = SimCellWswor(spec, w, si, pi, params.trials_sim,
                                protocol == "naive");
      } else if (protocol == "uswor") {
        sim_cell = SimCellUswor(spec, w, si, pi, params.trials_sim);
      } else if (protocol == "swr") {
        sim_cell = SimCellSwr(spec, w, si, pi, params.trials_sim);
      } else {
        sim_cell = SimCellL1(spec, w, si, pi, params.trials_sim);
      }
      EmitRow(bench, spec, protocol, "sim", w.size(), sim_cell);

      const CellResult engine_cell =
          EngineCell(spec, w, churn, protocol, si, pi, params.trials_engine);
      EmitRow(bench, spec, protocol, "engine", w.size(), engine_cell);
    }
  }

  const std::string path = bench.Write();
  Row("%s", "");
  Row("wrote %s", path.c_str());
  Row("%s", "pass criteria: p-values >= 1e-3, silent_wrong == 0, "
            "bit_identical == 1, message costs within envelopes "
            "(tools/check_bench.py --baseline bench/envelopes.json).");
  return 0;
}
