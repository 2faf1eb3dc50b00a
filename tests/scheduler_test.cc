// Tests of the work-stealing scheduler (engine/scheduler.h) that
// virtualizes sites over a fixed worker pool: exact step-synchronous
// equivalence with sim::Runtime at small and large k, a deterministic
// work-stealing scenario (a dry worker must steal a site homed to a busy
// sibling), skewed-load draining, quiesce under flush churn, caller-runs
// dispatch (the flushing thread runs queued sites itself; it races the
// pool for sites at a pipelined pass end), the batches_dropped_on_shutdown
// accounting, and a 100k-logical-site smoke run on a bounded pool. The
// whole file is run under -fsanitize=thread in CI.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/naive.h"
#include "core/sampler.h"
#include "engine/channels.h"
#include "engine/engine.h"
#include "engine/scheduler.h"
#include "obs/trace.h"
#include "random/rng.h"
#include "sim/deployment.h"
#include "stream/workload.h"

namespace dwrs {
namespace {

using engine::Engine;
using engine::EngineConfig;
using engine::EngineStats;
using engine::ItemBatch;
using engine::QuiesceBus;
using engine::Scheduler;

// ---------------------------------------------------------------------
// Fake endpoints for scheduler-level tests.

// Counts what it sees. Counters are atomic only so the test thread can
// poll them mid-run; the scheduler itself upholds the single-threaded
// endpoint contract.
struct CountingSite : sim::SiteNode {
  void OnItem(const Item& item) override {
    items.fetch_add(1);
    id_sum.fetch_add(item.id);
  }
  void OnMessage(const sim::Payload&) override { messages.fetch_add(1); }
  std::atomic<uint64_t> items{0};
  std::atomic<uint64_t> id_sum{0};
  std::atomic<uint64_t> messages{0};
};

// Parks the worker that runs it until the gate opens (sticky), so tests
// can pin a pool worker inside an endpoint callback deterministically.
struct GateSite : sim::SiteNode {
  void OnItem(const Item&) override {}
  void OnItems(const Item* /*items*/, size_t n) override {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return open; });
    items.fetch_add(n);
  }
  void OnMessage(const sim::Payload&) override {}
  void Open() {
    std::lock_guard<std::mutex> lock(mutex);
    open = true;
    cv.notify_all();
  }
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};
  std::atomic<uint64_t> items{0};
};

struct NullCoordinator : sim::CoordinatorNode {
  void OnMessage(int, const sim::Payload&) override {}
};

ItemBatch MakeBatch(uint64_t first_id, size_t n) {
  ItemBatch batch;
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(Item{first_id + i, 1.0});
  }
  return batch;
}

void SpinUntil(const std::function<bool()>& pred) {
  while (!pred()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------
// Step-synchronous bit-identity vs sim::Runtime. The scheduler changes
// who runs a site's callbacks, not what runs: per-event quiesce must
// reproduce the simulator exactly — sample contents, keys, and every
// traffic counter — at both a small k and a k well past any plausible
// worker-pool size.

struct EngineWswor {
  EngineWswor(const WsworConfig& config, const EngineConfig& engine_config)
      : eng(engine_config),
        endpoints(sim::Deploy(
            eng, config.seed,
            [&](int i, sim::Transport* transport, uint64_t seed) {
              return std::make_unique<WsworSite>(config, i, transport, seed);
            },
            [&](sim::Transport* transport, uint64_t seed) {
              return std::make_unique<WsworCoordinator>(config, transport,
                                                        seed);
            })),
        coordinator(endpoints.coordinator.get()) {}
  Engine eng;
  // Shuts the pool down before any endpoint dies (see the teardown
  // contract in engine/engine.h).
  sim::Deployment<WsworSite, WsworCoordinator> endpoints;
  WsworCoordinator* coordinator;
};

void ExpectStepSyncMatchesSim(int k, uint64_t n, const EngineConfig& config) {
  const WsworConfig wswor{.num_sites = k, .sample_size = 16, .seed = 42};
  const Workload w = WorkloadBuilder()
                         .num_sites(k)
                         .num_items(n)
                         .seed(7)
                         .weights(std::make_unique<ZipfWeights>(
                             uint64_t{1} << 16, 1.2))
                         .partitioner(std::make_unique<RandomPartitioner>())
                         .Build();

  DistributedWswor sim_sampler(wswor);
  sim_sampler.Run(w);

  EngineWswor es(wswor, config);
  es.eng.Run(w, [](uint64_t) {});  // a hook makes the run step-synchronous

  const std::vector<KeyedItem> a = sim_sampler.Sample();
  const std::vector<KeyedItem> b = es.coordinator->Sample();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item.id, b[i].item.id) << " position " << i;
    EXPECT_EQ(a[i].key, b[i].key) << " position " << i;
  }
  const sim::MessageStats sim_stats = sim_sampler.stats();
  const sim::MessageStats eng_stats = es.eng.stats().MessageSnapshot();
  EXPECT_EQ(sim_stats.site_to_coord, eng_stats.site_to_coord);
  EXPECT_EQ(sim_stats.coord_to_site, eng_stats.coord_to_site);
  EXPECT_EQ(sim_stats.words, eng_stats.words);
}

TEST(SchedulerEquivalenceTest, StepSyncMatchesSimAtSmallK) {
  ExpectStepSyncMatchesSim(
      /*k=*/16, /*n=*/2000,
      EngineConfig{.num_sites = 16});
}

TEST(SchedulerEquivalenceTest, StepSyncMatchesSimAtKPastPoolSize) {
  // k = 1000 logical sites over a pool of (at most) a few dozen workers:
  // every dispatch multiplexes many sites per worker, and the replay
  // must still be bit-identical.
  ExpectStepSyncMatchesSim(
      /*k=*/1000, /*n=*/3000,
      EngineConfig{.num_sites = 1000});
}

TEST(SchedulerEquivalenceTest, StepSyncMatchesSimWithTinyForcedPool) {
  // Two workers for 16 sites, stealing on: maximal consumer-role
  // migration between dispatches.
  ExpectStepSyncMatchesSim(/*k=*/16, /*n=*/2000,
                           EngineConfig{.num_sites = 16, .num_workers = 2});
}

// ---------------------------------------------------------------------
// Deterministic work stealing. Two workers, four sites: sites 0 and 1
// gate whichever worker runs them; sites 2 and 3 (homed to workers 0 and
// 1 respectively) are pushed while both workers are gated. Opening one
// gate frees exactly one worker, which must drain its own victim AND
// steal the one homed to the still-gated sibling — a steal is the only
// way both counting sites can drain.

TEST(SchedulerStealTest, DryWorkerStealsSiteHomedToBusySibling) {
  EngineConfig config;
  config.num_sites = 4;
  config.num_workers = 2;
  QuiesceBus bus;
  EngineStats stats;
  GateSite gate_a, gate_b;
  CountingSite victim_even, victim_odd;  // homed to worker 0 / worker 1
  Scheduler sched(config, &bus, &stats);
  sched.AttachSite(0, &gate_a);
  sched.AttachSite(1, &gate_b);
  sched.AttachSite(2, &victim_even);
  sched.AttachSite(3, &victim_odd);
  sched.Start();

  ItemBatch b0 = MakeBatch(0, 3), b1 = MakeBatch(10, 3);
  sched.PushBatch(0, std::move(b0), nullptr);
  sched.PushBatch(1, std::move(b1), nullptr);
  SpinUntil([&] {
    return gate_a.entered.load() + gate_b.entered.load() == 2;
  });

  ItemBatch b2 = MakeBatch(100, 5), b3 = MakeBatch(200, 7);
  sched.PushBatch(2, std::move(b2), nullptr);
  sched.PushBatch(3, std::move(b3), nullptr);

  gate_a.Open();
  SpinUntil([&] {
    return victim_even.items.load() == 5 && victim_odd.items.load() == 7;
  });
  EXPECT_GE(stats.steals.load(), 1u);

  gate_b.Open();
  bus.WaitUntil([&] { return sched.Idle(); });
  EXPECT_EQ(gate_a.items.load() + gate_b.items.load(), 6u);
  EXPECT_EQ(victim_even.id_sum.load(), 100u * 5 + (0 + 1 + 2 + 3 + 4));
  EXPECT_EQ(victim_odd.id_sum.load(), 200u * 7 + (0 + 1 + 2 + 3 + 4 + 5 + 6));
  EXPECT_GE(stats.sites_scheduled.load(), 4u);
  sched.RequestStop();
  sched.Join();
}

// ---------------------------------------------------------------------
// Skewed per-site load: one hot site carrying most of the stream plus a
// long tail. Every site must drain exactly its slice (the hot site's
// home queue overflows onto the pool) and the engine's accounting must
// reconcile.

TEST(SchedulerStressTest, SkewedLoadDrainsAllSitesWithStealing) {
  constexpr int kSites = 64;
  constexpr uint64_t kHotItems = 40000;
  constexpr uint64_t kTailItems = 250;
  EngineConfig config;
  config.num_sites = kSites;
  config.num_workers = 4;
  config.batch_size = 64;
  config.item_queue_batches = 2;  // tiny queues: exercise backpressure

  std::vector<std::unique_ptr<CountingSite>> sites;
  NullCoordinator coordinator;
  Engine eng(config);
  for (int i = 0; i < kSites; ++i) {
    sites.push_back(std::make_unique<CountingSite>());
    eng.AttachSite(i, sites.back().get());
  }
  eng.AttachCoordinator(&coordinator);

  uint64_t id = 0;
  for (uint64_t i = 0; i < kHotItems; ++i) eng.Push(0, Item{id++, 1.0});
  for (int site = 1; site < kSites; ++site) {
    for (uint64_t i = 0; i < kTailItems; ++i) eng.Push(site, Item{id++, 1.0});
  }
  eng.Flush();

  EXPECT_EQ(sites[0]->items.load(), kHotItems);
  for (int site = 1; site < kSites; ++site) {
    EXPECT_EQ(sites[site]->items.load(), kTailItems) << " site " << site;
  }
  const EngineStats& stats = eng.stats();
  EXPECT_EQ(stats.items_ingested.load(), id);
  EXPECT_GE(stats.sites_scheduled.load(), uint64_t{kSites});
  EXPECT_EQ(stats.batches_dropped_on_shutdown.load(), 0u);
  eng.Shutdown();
}

// ---------------------------------------------------------------------
// Quiesce under churn: interleave ingestion with frequent Flush() calls
// (each a full quiesce) and mid-stream queries while the real protocol
// generates site⇄coordinator traffic. Every quiesce must observe a
// consistent drained state; the final sample must be a legal SWOR.

TEST(SchedulerQuiesceTest, FlushChurnWithProtocolTraffic) {
  constexpr int k = 50;
  constexpr uint64_t n = 20000;
  const WsworConfig wswor{.num_sites = k, .sample_size = 32, .seed = 5};
  EngineWswor es(wswor, EngineConfig{.num_sites = k,
                                     .num_workers = 3,
                                     .batch_size = 16,
                                     .item_queue_batches = 2,
                                     .message_queue_capacity = 8});
  Rng partition(99);
  size_t last_sample = 0;
  for (uint64_t i = 0; i < n; ++i) {
    es.eng.Push(
        static_cast<int>(partition.NextBounded(static_cast<uint64_t>(k))),
        Item{i, 1.0 + static_cast<double>(i % 7)});
    if ((i + 1) % 1000 == 0) {
      es.eng.Flush();
      // Quiesce point: querying is legal; sample size is monotone up to s.
      const size_t size = es.coordinator->Sample().size();
      EXPECT_GE(size, last_sample);
      EXPECT_LE(size, 32u);
      last_sample = size;
    }
  }
  es.eng.Flush();
  EXPECT_EQ(es.coordinator->Sample().size(), 32u);
  EXPECT_EQ(es.eng.stats().items_ingested.load(), n);
  EXPECT_GE(es.eng.stats().quiesces.load(), n / 1000);
}

// ---------------------------------------------------------------------
// Caller-runs dispatch. A step-synchronous Flush hands the step's batch
// to its site without waking the pool and runs the site on the flushing
// thread. The naive protocol's coordinator never sends to a site, so
// once both pool workers have parked (during step 1) nothing may wake
// them again: every later step is exactly one dispatch on the flushing
// thread, and the run stays bit-identical to the simulator.

struct CallerRunsResult {
  std::vector<KeyedItem> sample;
  sim::MessageStats messages;
  uint64_t flush_dispatches_after_step1 = 0;
  uint64_t worker_parks_after_step1 = 0;
};

CallerRunsResult RunNaiveStepSync(const Workload& w, int s, uint64_t seed) {
  const int k = w.num_sites();
  Engine eng(EngineConfig{.num_sites = k, .num_workers = 2});
  const auto endpoints = sim::Deploy(
      eng, seed,
      [&](int i, sim::Transport* transport, uint64_t site_seed) {
        return std::make_unique<NaiveWsworSite>(s, i, transport, site_seed);
      },
      [&](sim::Transport*, uint64_t) {
        return std::make_unique<NaiveWsworCoordinator>(s);
      });
  const NaiveWsworCoordinator& coordinator = *endpoints.coordinator;

  const EngineStats& stats = eng.stats();
  uint64_t dispatches_at_step1 = 0;
  uint64_t parks_at_step1 = 0;
  eng.Run(w, [&](uint64_t step) {
    if (step != 1) return;
    // Both workers park once nothing is runnable; a worker still
    // starting up may have taken step 1's site itself.
    SpinUntil([&] { return stats.worker_parks.load() >= 2; });
    dispatches_at_step1 = stats.flush_dispatches.load();
    parks_at_step1 = stats.worker_parks.load();
  });
  CallerRunsResult out;
  out.sample = coordinator.Sample();
  out.messages = stats.MessageSnapshot();
  out.flush_dispatches_after_step1 =
      stats.flush_dispatches.load() - dispatches_at_step1;
  out.worker_parks_after_step1 = stats.worker_parks.load() - parks_at_step1;
  eng.Shutdown();
  return out;
}

void ExpectSameNaiveRun(const NaiveDistributedWswor& sim_sampler,
                        const CallerRunsResult& run) {
  const std::vector<KeyedItem> expected = sim_sampler.Sample();
  ASSERT_EQ(expected.size(), run.sample.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].item.id, run.sample[i].item.id) << " position " << i;
    EXPECT_EQ(expected[i].key, run.sample[i].key) << " position " << i;
  }
  EXPECT_EQ(sim_sampler.stats().site_to_coord, run.messages.site_to_coord);
  EXPECT_EQ(sim_sampler.stats().coord_to_site, run.messages.coord_to_site);
  EXPECT_EQ(sim_sampler.stats().words, run.messages.words);
}

Workload CallerRunsWorkload(int k, uint64_t n) {
  return WorkloadBuilder()
      .num_sites(k)
      .num_items(n)
      .seed(17)
      .weights(std::make_unique<ZipfWeights>(uint64_t{1} << 16, 1.2))
      .partitioner(std::make_unique<RandomPartitioner>())
      .Build();
}

TEST(CallerRunsTest, StepSyncFlushRunsEveryStepOnTheFlushingThread) {
  constexpr int k = 8, s = 16;
  constexpr uint64_t n = 3000;
  const Workload w = CallerRunsWorkload(k, n);
  NaiveDistributedWswor sim_sampler(k, s, /*seed=*/31);
  sim_sampler.Run(w);

  const CallerRunsResult run = RunNaiveStepSync(w, s, /*seed=*/31);
  ExpectSameNaiveRun(sim_sampler, run);
  // Steps 2..n each bore one item; Run's closing Flush bore none.
  EXPECT_EQ(run.flush_dispatches_after_step1, n - 1);
  EXPECT_EQ(run.worker_parks_after_step1, 0u);
}

// A WsworSite that also counts what it was handed. Plain counters: the
// engine's single-threaded endpoint contract (and, at quiesce points,
// its pushed/done handshake) must make them race-free even when the
// flushing thread and the pool workers take turns running the site.
struct CountedWsworSite : WsworSite {
  using WsworSite::WsworSite;
  void OnItem(const Item& item) override {
    ++items_seen;
    WsworSite::OnItem(item);
  }
  void OnItems(const Item* items, size_t n) override {
    items_seen += n;
    WsworSite::OnItems(items, n);
  }
  void OnMessage(const sim::Payload& msg) override {
    ++messages_seen;
    WsworSite::OnMessage(msg);
  }
  uint64_t items_seen = 0;
  uint64_t messages_seen = 0;
};

// Pipelined ingestion into tiny rings and a tiny coordinator inbox, with
// a Flush every few hundred items: each Flush finds full rings (a worker
// is mid-quantum or about to steal) and threshold broadcasts in flight,
// so the flushing thread and the workers race for the same queued
// sites. Every Flush must still return at a quiesce point where all
// items and all messages were delivered exactly once.
TEST(CallerRunsTest, PassEndFlushRacesWorkersForQueuedSites) {
  constexpr int k = 8;
  constexpr int kTrials = 10;
  constexpr uint64_t kItems = 3000;
  constexpr uint64_t kFlushEvery = 250;
  uint64_t flush_dispatches = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const WsworConfig wswor{.num_sites = k,
                            .sample_size = 8,
                            .seed = 100 + static_cast<uint64_t>(trial)};
    Engine eng(EngineConfig{.num_sites = k,
                            .num_workers = 2,
                            .batch_size = 8,
                            .item_queue_batches = 2,
                            .message_queue_capacity = 4,
                            .control_poll_stride = 4});
    const auto endpoints = sim::Deploy(
        eng, wswor.seed,
        [&](int i, sim::Transport* transport, uint64_t seed) {
          return std::make_unique<CountedWsworSite>(wswor, i, transport, seed);
        },
        [&](sim::Transport* transport, uint64_t seed) {
          return std::make_unique<WsworCoordinator>(wswor, transport, seed);
        });
    const auto& sites = endpoints.sites;
    const auto& coordinator = endpoints.coordinator;

    Rng partition(7 + static_cast<uint64_t>(trial));
    for (uint64_t i = 0; i < kItems; ++i) {
      eng.Push(static_cast<int>(partition.NextBounded(uint64_t{k})),
               Item{i, 1.0 + static_cast<double>(i % 13)});
      if ((i + 1) % kFlushEvery != 0) continue;
      eng.Flush();
      uint64_t items = 0, control = 0;
      for (const auto& site : sites) {
        items += site->items_seen;
        control += site->messages_seen;
      }
      const sim::MessageStats messages = eng.stats().MessageSnapshot();
      EXPECT_EQ(items, i + 1) << " trial " << trial;
      EXPECT_EQ(control, messages.coord_to_site) << " trial " << trial;
      EXPECT_EQ(coordinator->early_received() +
                    coordinator->regular_received(),
                messages.site_to_coord)
          << " trial " << trial;
    }
    const std::vector<KeyedItem> sample = coordinator->Sample();
    ASSERT_EQ(sample.size(), 8u);
    for (size_t j = 1; j < sample.size(); ++j) {
      EXPECT_GT(sample[j - 1].key, sample[j].key);
    }
    EXPECT_EQ(eng.stats().batches_dropped_on_shutdown.load(), 0u);
    flush_dispatches += eng.stats().flush_dispatches.load();
    eng.Shutdown();
  }
  EXPECT_GT(flush_dispatches, 0u);
}

// ---------------------------------------------------------------------
// Shutdown mid-stream with the feeder blocked on a full site ring: the
// in-flight batch is dropped, and the drop must be counted — silent loss
// was the old engine's bug.

TEST(SchedulerShutdownTest, MidStreamStopCountsDroppedBatches) {
  GateSite gate;  // declared before the engine (teardown contract)
  NullCoordinator coordinator;
  EngineConfig config;
  config.num_sites = 1;
  config.num_workers = 1;
  config.batch_size = 1;        // every Push hands off immediately
  config.item_queue_batches = 1;  // ring holds a single batch
  Engine eng(config);
  eng.AttachSite(0, &gate);
  eng.AttachCoordinator(&coordinator);

  // First push from this thread: it starts the engine, so the spawned
  // threads below see fully-constructed workers (Shutdown from a second
  // thread is only safe after Start happened-before it).
  eng.Push(0, Item{0, 1.0});  // taken by the worker, which gates
  SpinUntil([&] { return gate.entered.load() == 1; });
  std::thread feeder([&] {
    eng.Push(0, Item{1, 1.0});  // fills the ring
    eng.Push(0, Item{2, 1.0});  // blocks: ring full, worker gated
  });
  SpinUntil([&] { return eng.stats().ingest_stalls.load() >= 1; });

  std::thread stopper([&] { eng.Shutdown(); });
  feeder.join();  // returns only once the blocked push gave up
  EXPECT_EQ(eng.stats().batches_dropped_on_shutdown.load(), 1u);
  gate.Open();  // let the gated worker finish so Shutdown can join
  stopper.join();
  // Accounting reconciles: 3 ingested, 1 visibly dropped, 2 either
  // processed or still queued at stop — but never silently lost.
  EXPECT_EQ(eng.stats().items_ingested.load(), 3u);
}

// ---------------------------------------------------------------------
// The tentpole's scale point: 100k logical sites on a worker pool
// bounded by hardware_concurrency. Thread-per-site would need 100k
// threads; the scheduler needs 100k * O(bytes) of site state.

TEST(SchedulerScaleTest, HundredThousandLogicalSitesOnBoundedPool) {
  constexpr int kSites = 100000;
  constexpr uint64_t kItems = 200000;
  EngineConfig config;
  config.num_sites = kSites;
  config.batch_size = 64;
  config.item_queue_batches = 2;

  std::vector<std::unique_ptr<CountingSite>> sites;
  NullCoordinator coordinator;
  Engine eng(config);
  EXPECT_LE(eng.num_workers(),
            static_cast<int>(std::thread::hardware_concurrency()));
  for (int i = 0; i < kSites; ++i) {
    sites.push_back(std::make_unique<CountingSite>());
    eng.AttachSite(i, sites.back().get());
  }
  eng.AttachCoordinator(&coordinator);

  Rng rng(123);
  for (uint64_t i = 0; i < kItems; ++i) {
    eng.Push(static_cast<int>(rng.NextBounded(uint64_t{kSites})),
             Item{i, 1.0});
  }
  eng.Flush();

  uint64_t total = 0;
  for (const auto& site : sites) total += site->items.load();
  EXPECT_EQ(total, kItems);
  EXPECT_EQ(eng.stats().items_ingested.load(), kItems);
  eng.Shutdown();
}

// ---------------------------------------------------------------------
// Trace site ids must survive the virtualized-site regime: int16 wrapped
// negative past 32767 sites.

TEST(SchedulerTraceTest, TraceSiteIdsSurvivePastInt16) {
  obs::FlightRecorder::Get().Enable(/*ring_capacity=*/64,
                                    /*deterministic=*/true);
  // False only in a build with the recorder compiled out
  // (-DDWRS_TRACING=OFF), where Emit records nothing.
  const bool recording = obs::TracingEnabled();
  obs::TraceEvent event;
  event.type = obs::EventType::kSiteScheduled;
  event.site = 100000;
  obs::Emit(event);
  obs::FlightRecorder::Get().Disable();
  const std::vector<obs::TraceEvent> events =
      obs::FlightRecorder::Get().Collect();
  bool found = false;
  for (const obs::TraceEvent& e : events) {
    if (e.type == obs::EventType::kSiteScheduled) {
      EXPECT_EQ(e.site, 100000);
      EXPECT_GE(e.site, 0);
      found = true;
    }
  }
  EXPECT_EQ(found, recording);
}

}  // namespace
}  // namespace dwrs
