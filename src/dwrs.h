// Umbrella header for the dwrs library: distributed weighted reservoir
// sampling (Jayaram, Sharma, Tirthapura, Woodruff — PODS 2019) and its
// applications.
//
//   DistributedWswor          — message-optimal weighted SWOR (Theorem 3)
//   NaiveDistributedWswor     — Θ(ks log W) baseline (Section 1.2)
//   DistributedWeightedSwr    — weighted SWR via duplication (Corollary 1)
//   DistributedUnweightedSwor — unweighted substrate ([11,14,31])
//   ResidualHeavyHitterTracker— residual heavy hitters (Theorem 4)
//   L1Tracker                 — count tracking (Theorem 6)
//   DeterministicL1Tracker / SqrtkL1Tracker — baselines (Section 5 table)
//   SlidingWindowWswor / DistributedWindowWswor — sliding windows (§6)
//   CascadeSampler            — [7]'s chained SWOR
//   swor estimators           — subset sums from the coordinator sample
//   engine::Engine            — concurrent execution backend (threaded
//                               sites, batched ingestion; src/engine/)
//   engine::ShardedEngine     — sharded multi-coordinator topology with
//   ShardedWswor                exact sample merge (MergeableSample)
//   faults::FaultyRun         — deterministic fault injection + crash/
//                               loss-tolerant session layer (src/faults/)
//   faults::Sharded           — the one sharded harness: a FaultyRun or
//                               durability::DurableWswor per shard, seeded
//                               as every deployment is (sim/deployment.h)

#ifndef DWRS_DWRS_H_
#define DWRS_DWRS_H_

#include "core/naive.h"
#include "core/sharded_sampler.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "core/sampler.h"
#include "estimators/swor_estimators.h"
#include "faults/harness.h"
#include "hh/exact_hh.h"
#include "hh/misra_gries.h"
#include "hh/residual_hh.h"
#include "hh/space_saving.h"
#include "hh/swr_hh.h"
#include "l1/deterministic_l1.h"
#include "l1/l1_tracker.h"
#include "l1/sqrtk_l1.h"
#include "sampling/cascade.h"
#include "sampling/efraimidis_spirakis.h"
#include "sampling/priority_sampling.h"
#include "sampling/reservoir.h"
#include "sampling/weighted_swr.h"
#include "stream/workload.h"
#include "swr/distributed_weighted_swr.h"
#include "unweighted/distributed_swor.h"
#include "window/distributed_window.h"
#include "window/sliding_window_swor.h"

#endif  // DWRS_DWRS_H_
