// The declarative scenario layer: a named, seed-deterministic,
// enumerable catalog of distributed-stream workloads in the YCSB spirit
// (Cooper et al., SoCC'10), each composing a weight generator, a
// partitioner, and an optional site-churn schedule. Every accuracy and
// message-cost claim the repo gates is measured over this matrix
// (bench/bench_scenarios.cc x tools/check_bench.py against
// bench/envelopes.json), so "the bounds hold under arbitrary input" is a
// standing, regression-gated statement rather than a per-PR anecdote on
// one static stream.
//
//   const ScenarioSpec* sc = FindScenario("zipf_sweep");
//   Workload w = BuildScenarioWorkload(*sc, /*seed=*/7, /*quick=*/true);
//   engine.Run(w);
//
// Determinism: (scenario, seed, quick) fully determines the workload
// and — for churn scenarios — the fault schedule, so any matrix cell
// replays bit for bit on the simulator and on the step-synchronous
// engine.

#ifndef DWRS_STREAM_SCENARIO_H_
#define DWRS_STREAM_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault_schedule.h"
#include "stream/dynamics.h"
#include "stream/generators.h"
#include "stream/partitioners.h"
#include "stream/workload.h"

namespace dwrs {

struct ScenarioSpec {
  std::string name;
  std::string description;
  int num_sites = 8;
  uint64_t items_full = 200000;
  uint64_t items_quick = 1200;

  // Factories (pure; the Rng driving the products comes from the
  // workload builder, keyed on the run seed). `make_weights` receives
  // the materialized item count so phase lengths can scale with the
  // stream (quick runs sweep the same phases as full runs).
  std::function<std::unique_ptr<WeightGenerator>(uint64_t num_items)>
      make_weights;
  std::function<std::unique_ptr<Partitioner>()> make_partitioner;

  // Site churn: crash/restart schedule applied through the fault
  // harness's crash/resync path (sites leave mid-stream, drop their
  // volatile state, and rejoin with a bumped epoch). All-zero for
  // steady scenarios. The seed field is a template; ScenarioChurn mixes
  // the run seed in.
  faults::FaultConfig churn;
  bool has_churn = false;
};

// The scenario catalog, built once: >= 6 scenarios covering steady
// baselines, skew sweeps, hot-key drift, a hopping hot site, skewed
// site ownership, and site churn. Stable order; unique names.
const std::vector<ScenarioSpec>& ScenarioRegistry();

// nullptr when no scenario has `name`.
const ScenarioSpec* FindScenario(const std::string& name);

// Materializes the scenario's replayable distributed stream.
Workload BuildScenarioWorkload(const ScenarioSpec& spec, uint64_t seed,
                               bool quick);

// The scenario's churn schedule with the run seed mixed in (equal to
// spec.churn but for the seed; all-zero schedules pass through).
faults::FaultConfig ScenarioChurn(const ScenarioSpec& spec, uint64_t seed);

}  // namespace dwrs

#endif  // DWRS_STREAM_SCENARIO_H_
