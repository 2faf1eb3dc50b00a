// Observability layer tests: the unified snapshot schema is bit-exact
// against the legacy counter structs at quiesce, the registry's
// instruments and collectors export through the same path, the flight
// recorder's rings wrap without losing the newest events, the
// step-synchronous canonical event transcript is deterministic per seed
// across the sim and engine backends, concurrent tracing from every
// engine thread is race-free (this file runs under TSan in CI), the
// disabled path makes no allocations, and the acceptance scenario — a
// seeded faulty sharded run — yields a trace whose per-message
// causality and event counts reconcile with the RunReport.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "core/sharded_sampler.h"
#include "engine/sharded_engine.h"
#include "faults/harness.h"
#include "obs/metrics.h"
#include "obs/schema.h"
#include "obs/trace.h"
#include "query/live.h"
#include "query/query_service.h"
#include "core/sampler.h"
#include "random/rng.h"
#include "sim/deployment.h"
#include "stream/workload.h"
#include "test_util.h"

// --- allocation counter for the disabled-cost test --------------------
// Overriding global new/delete counts every heap allocation in the
// process; tests read the counter delta around the region under test
// (single-threaded there, so the relaxed counter is exact).
//
// GCC's mismatched-new-delete analysis treats the counting operator new
// as an unknown allocator and flags every inlined delete, although both
// sides consistently end in malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace dwrs {
namespace {

using engine::Engine;
using engine::EngineConfig;
using engine::ShardedEngine;
using engine::ShardedEngineConfig;
using faults::Backend;
using faults::FaultConfig;
using faults::FaultyWswor;
using faults::RunReport;
using faults::ShardedFaultyWswor;
using obs::EventType;
using obs::FlightRecorder;
using obs::Snapshot;
using obs::TraceEvent;
using query::LiveShardPublishers;
using query::QueryService;

Workload UniformWorkload(int k, uint64_t n, uint64_t seed) {
  return WorkloadBuilder()
      .num_sites(k)
      .num_items(n)
      .seed(seed)
      .weights(std::make_unique<UniformWeights>(1.0, 16.0))
      .partitioner(std::make_unique<RandomPartitioner>())
      .Build();
}

uint64_t Uint(const Snapshot& snap, const std::string& name) {
  const obs::SnapshotValue* v = snap.Find(name);
  EXPECT_NE(v, nullptr) << name << " missing from snapshot";
  if (v == nullptr) return ~uint64_t{0};
  EXPECT_EQ(v->kind, obs::SnapshotValue::Kind::kUint) << name;
  return v->u;
}

// ---------------------------------------------------------------------
// Snapshot schema: bit-equal against the legacy counter structs.

TEST(SchemaTest, MessageStatsSnapshotIsBitEqual) {
  DistributedWswor sampler(
      WsworConfig{.num_sites = 8, .sample_size = 16, .seed = 3});
  sampler.Run(UniformWorkload(8, 20000, /*seed=*/5));
  const sim::MessageStats& stats = sampler.stats();

  Snapshot snap;
  AppendMessageStats(stats, "", &snap);
  EXPECT_EQ(Uint(snap, "messages"), stats.total_messages());
  EXPECT_EQ(Uint(snap, "site_to_coord"), stats.site_to_coord);
  EXPECT_EQ(Uint(snap, "coord_to_site"), stats.coord_to_site);
  EXPECT_EQ(Uint(snap, "broadcast_events"), stats.broadcast_events);
  EXPECT_EQ(Uint(snap, "words"), stats.words);
  for (size_t i = 0; i < stats.by_type.size(); ++i) {
    if (stats.by_type[i] == 0) continue;
    EXPECT_EQ(Uint(snap, "by_type/" + std::to_string(i)), stats.by_type[i]);
  }
  // The legacy ToString is the snapshot's text rendering — one schema,
  // zero drift.
  EXPECT_EQ(stats.ToString(), snap.ToText());
}

TEST(SchemaTest, EngineStatsSnapshotIsBitEqualAtQuiesce) {
  const WsworConfig config{.num_sites = 4, .sample_size = 8, .seed = 11};
  Engine eng(EngineConfig{.num_sites = 4});
  const auto endpoints = sim::Deploy(
      eng, config.seed,
      [&](int i, sim::Transport* transport, uint64_t seed) {
        return std::make_unique<WsworSite>(config, i, transport, seed);
      },
      [&](sim::Transport* transport, uint64_t seed) {
        return std::make_unique<WsworCoordinator>(config, transport, seed);
      });
  const auto& coordinator = endpoints.coordinator;
  eng.Run(UniformWorkload(4, 30000, /*seed=*/13));  // ends quiescent

  const engine::EngineStats& stats = eng.stats();
  Snapshot snap;
  AppendEngineStats(stats, "engine", &snap);
  const auto get = [](const std::atomic<uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  EXPECT_EQ(Uint(snap, "engine/messages"), stats.total_messages());
  EXPECT_EQ(Uint(snap, "engine/site_to_coord"), get(stats.site_to_coord));
  EXPECT_EQ(Uint(snap, "engine/words"), get(stats.words));
  EXPECT_EQ(Uint(snap, "engine/items_ingested"), get(stats.items_ingested));
  EXPECT_EQ(Uint(snap, "engine/batches_ingested"),
            get(stats.batches_ingested));
  EXPECT_EQ(Uint(snap, "engine/quiesces"), get(stats.quiesces));
  EXPECT_EQ(Uint(snap, "engine/flush_dispatches"),
            get(stats.flush_dispatches));
  EXPECT_EQ(Uint(snap, "engine/keys_decided"), get(stats.keys_decided));
  EXPECT_EQ(Uint(snap, "engine/wasted_messages"), get(stats.wasted_messages));
  EXPECT_EQ(get(stats.wasted_messages), coordinator->wasted_messages());
  EXPECT_EQ(get(stats.items_ingested), 30000u);

  // Registry collector path: identical entries, just collected through
  // Registry::Collect.
  obs::Registry registry;
  registry.AddCollector([&stats](Snapshot* out) {
    AppendEngineStats(stats, "engine", out);
  });
  const Snapshot collected = registry.Collect();
  ASSERT_EQ(collected.entries().size(), snap.entries().size());
  for (size_t i = 0; i < snap.entries().size(); ++i) {
    EXPECT_EQ(collected.entries()[i].first, snap.entries()[i].first);
    EXPECT_EQ(collected.entries()[i].second.u, snap.entries()[i].second.u);
  }
  // ToString routes through the same schema with no prefix.
  Snapshot bare;
  AppendEngineStats(stats, "", &bare);
  EXPECT_EQ(stats.ToString(), bare.ToText());
}

TEST(SchemaTest, QueryServiceStatsSnapshotIsBitEqual) {
  query::SnapshotPublisher publisher;
  query::ShardSnapshot snap_in;
  snap_in.state_version = 1;
  snap_in.sample.kind = SampleKind::kTopKey;
  snap_in.sample.target_size = 2;
  publisher.Publish(std::move(snap_in));

  QueryService service({&publisher});
  (void)service.QueryShared();  // miss, fills the merge cache
  (void)service.QueryShared();  // hit
  (void)service.Query(query::QueryOptions{
      .min_version = 99, .max_staleness = std::chrono::nanoseconds{0}});

  const query::QueryServiceStats stats = service.stats();
  Snapshot snap;
  AppendQueryServiceStats(stats, "query", &snap);
  EXPECT_EQ(Uint(snap, "query/cache_hits"), stats.cache_hits);
  EXPECT_EQ(Uint(snap, "query/cache_misses"), stats.cache_misses);
  EXPECT_EQ(Uint(snap, "query/cache_invalidations"),
            stats.cache_invalidations);
  EXPECT_EQ(Uint(snap, "query/snapshot_copies_avoided"),
            stats.snapshot_copies_avoided);
  EXPECT_EQ(Uint(snap, "query/slo_waits"), stats.slo_waits);
  EXPECT_EQ(Uint(snap, "query/slo_timeouts"), stats.slo_timeouts);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.snapshot_copies_avoided, 1u);
  EXPECT_EQ(stats.slo_timeouts, 1u);
}

TEST(RegistryTest, HandlesAreIdempotentAndHistogramQuantilesOrder) {
  obs::Registry registry;
  obs::Counter* c = registry.GetCounter("query/served");
  EXPECT_EQ(c, registry.GetCounter("query/served"));
  c->Inc(41);
  c->Inc();
  registry.GetGauge("engine/threshold")->Set(0.25);
  obs::LatencyHistogram* h =
      registry.GetHistogram("query/latency_us", 0.1, 1e6, 48);
  EXPECT_EQ(h, registry.GetHistogram("query/latency_us"));
  for (int i = 1; i <= 1000; ++i) h->Record(static_cast<double>(i));
  EXPECT_EQ(h->count(), 1000u);
  EXPECT_LE(h->Quantile(0.5), h->Quantile(0.99));

  const Snapshot snap = registry.Collect();
  EXPECT_EQ(Uint(snap, "query/served"), 42u);
  const obs::SnapshotValue* gauge = snap.Find("engine/threshold");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->d, 0.25);
  EXPECT_EQ(Uint(snap, "query/latency_us/count"), 1000u);
  EXPECT_NE(snap.ToJson().find("\"query/served\": 42"), std::string::npos);
}

// ---------------------------------------------------------------------
// Flight recorder mechanics.

TEST(FlightRecorderTest, RingWraparoundKeepsNewestAndCountsDropped) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Enable(/*ring_capacity=*/16, /*deterministic=*/true);
  if (!obs::TracingEnabled()) GTEST_SKIP() << "tracing compiled out";
  for (uint64_t i = 0; i < 100; ++i) {
    TraceEvent event;
    event.type = EventType::kItemSpan;
    event.a = i;
    obs::Emit(event);
  }
  recorder.Disable();
  const std::vector<TraceEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 16u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 84 + i);  // oldest surviving first
  }
  EXPECT_EQ(recorder.dropped(), 84u);
  EXPECT_EQ(recorder.ring_count(), 1u);
}

TEST(FlightRecorderTest, ChromeExportIsValidJsonShape) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Enable(/*ring_capacity=*/64, /*deterministic=*/true);
  if (!obs::TracingEnabled()) GTEST_SKIP() << "tracing compiled out";
  TraceEvent span;
  span.type = EventType::kQueryServe;
  span.dur_ns = 1500;
  obs::Emit(span);
  TraceEvent instant;
  instant.type = EventType::kMsgSend;
  instant.seq = 7;
  obs::Emit(instant);
  recorder.Disable();
  const std::string json = recorder.ExportChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"query_serve\", \"ph\": \"X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"msg_send\", \"ph\": \"i\""),
            std::string::npos);
  EXPECT_NE(json.find("\"seq\": 7"), std::string::npos);
}

TEST(FlightRecorderTest, DisabledTracingMakesNoAllocations) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Enable(/*ring_capacity=*/16, /*deterministic=*/true);
  recorder.Disable();
  ASSERT_FALSE(obs::TracingEnabled());
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    // The instrumentation idiom everywhere in the tree: guard, then
    // Emit. Disabled, neither side may touch the heap.
    if (obs::TracingEnabled()) {
      TraceEvent event;
      event.type = EventType::kItemSpan;
      obs::Emit(event);
    }
    TraceEvent event;  // and Emit's own early-out allocates nothing
    event.type = EventType::kMsgSend;
    obs::Emit(event);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

// ---------------------------------------------------------------------
// Determinism: canonical transcript per seed, across backends.

std::vector<TraceEvent> RecordFaultyTranscript(Backend backend) {
  const WsworConfig config{.num_sites = 6, .sample_size = 8, .seed = 21};
  FaultConfig faults;
  faults.seed = 9;
  faults.drop_prob = 0.05;
  faults.duplicate_prob = 0.05;
  faults.crash_prob = 0.002;
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Enable(/*ring_capacity=*/1 << 17, /*deterministic=*/true);
  {
    FaultyWswor run(config, faults, backend);
    run.Run(UniformWorkload(6, 8000, /*seed=*/23));
  }
  recorder.Disable();
  EXPECT_EQ(recorder.dropped(), 0u);
  return CanonicalTranscript(recorder.Collect());
}

TEST(FlightRecorderTest, CanonicalTranscriptDeterministicAcrossBackends) {
  FlightRecorder::Get().Enable(16, true);
  if (!obs::TracingEnabled()) {
    FlightRecorder::Get().Disable();
    GTEST_SKIP() << "tracing compiled out";
  }
  const std::vector<TraceEvent> sim1 = RecordFaultyTranscript(Backend::kSim);
  const std::vector<TraceEvent> sim2 = RecordFaultyTranscript(Backend::kSim);
  const std::vector<TraceEvent> eng = RecordFaultyTranscript(Backend::kEngine);
  ASSERT_FALSE(sim1.empty());
  ASSERT_EQ(sim1.size(), sim2.size());
  ASSERT_EQ(sim1.size(), eng.size());
  for (size_t i = 0; i < sim1.size(); ++i) {
    EXPECT_TRUE(CanonicalEquals(sim1[i], sim2[i])) << " position " << i;
    EXPECT_TRUE(CanonicalEquals(sim1[i], eng[i])) << " position " << i;
  }
}

// ---------------------------------------------------------------------
// Concurrent tracing: every engine thread (sites, coordinators, query
// readers) records at once. Run under TSan in CI.

TEST(FlightRecorderTest, ConcurrentEngineAndQueryTracingIsClean) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Enable(/*ring_capacity=*/1 << 15, /*deterministic=*/false);
  if (!obs::TracingEnabled()) {
    recorder.Disable();
    GTEST_SKIP() << "tracing compiled out";
  }
  const int k = 8;
  WsworConfig config;
  config.num_sites = k;
  config.sample_size = 16;
  config.seed = 33;
  ShardedEngineConfig engine_config;
  engine_config.num_sites = k;
  engine_config.num_shards = 2;
  engine_config.shard.batch_size = 64;
  ShardedEngine eng(engine_config);
  const ShardedWsworEndpoints endpoints = AttachShardedWswor(config, eng);
  const std::unique_ptr<LiveShardPublishers> publishers =
      query::EnableWsworLiveQueries(eng, endpoints);
  QueryService service(publishers->views());

  std::atomic<bool> stop{false};
  std::thread reader([&service, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)service.Query();
    }
  });
  eng.Run(UniformWorkload(k, 40000, /*seed=*/35));
  stop.store(true, std::memory_order_release);
  reader.join();
  recorder.Disable();

  std::set<EventType> types;
  for (const TraceEvent& e : recorder.Collect()) types.insert(e.type);
  EXPECT_TRUE(types.count(EventType::kItemSpan));
  EXPECT_TRUE(types.count(EventType::kThresholdBump));
  EXPECT_TRUE(types.count(EventType::kSnapshotPublish));
  EXPECT_TRUE(types.count(EventType::kQueryServe));
  EXPECT_GE(recorder.ring_count(), 2u);
}

// ---------------------------------------------------------------------
// Acceptance: seeded faulty sharded run — the trace reconstructs
// per-message causality and reconciles with the RunReport.

TEST(FaultTraceAcceptanceTest, ShardedCausalityMatchesRunReport) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Enable(/*ring_capacity=*/1 << 17, /*deterministic=*/false);
  if (!obs::TracingEnabled()) {
    recorder.Disable();
    GTEST_SKIP() << "tracing compiled out";
  }
  const int kShards = 4;
  const WsworConfig config{.num_sites = 8, .sample_size = 16, .seed = 41};
  std::vector<FaultConfig> shard_faults;
  for (int j = 0; j < kShards; ++j) {
    FaultConfig fc;
    fc.seed = 70 + static_cast<uint64_t>(j);
    fc.drop_prob = 0.05;
    fc.duplicate_prob = 0.05;
    fc.crash_prob = 0.002;
    shard_faults.push_back(fc);
  }
  ShardedFaultyWswor run(config, shard_faults, Backend::kEngine);
  run.Run(UniformWorkload(8, 30000, /*seed=*/43));
  const RunReport report = run.report();
  recorder.Disable();
  ASSERT_EQ(recorder.dropped(), 0u) << "grow the test's ring capacity";
  const std::vector<TraceEvent> events = recorder.Collect();

  std::map<EventType, uint64_t> counts;
  for (const TraceEvent& e : events) ++counts[e.type];
  // One trace event per counter increment: the report is reconstructible
  // from the trace alone.
  EXPECT_EQ(counts[EventType::kMsgDeliver], report.delivered);
  EXPECT_EQ(counts[EventType::kDupDrop], report.duplicates_dropped);
  EXPECT_EQ(counts[EventType::kCrash], report.crashes);
  EXPECT_EQ(counts[EventType::kEpochBump], report.crash_detections);
  EXPECT_EQ(counts[EventType::kResyncSend], report.resyncs_sent);
  EXPECT_EQ(counts[EventType::kGapNack], report.nacks_sent);
  EXPECT_EQ(counts[EventType::kRetransmit], report.retransmits_sent);
  EXPECT_EQ(counts[EventType::kStaleEpochDrop], report.stale_epoch_dropped);
  EXPECT_EQ(counts[EventType::kFaultDrop], report.faults_dropped);
  EXPECT_EQ(counts[EventType::kFaultDup], report.faults_duplicated);
  EXPECT_EQ(counts[EventType::kFaultDelay], report.faults_delayed);
  EXPECT_GT(report.crashes, 0u);
  EXPECT_GT(report.duplicates_dropped, 0u);

  // Per-message causality: every in-order delivery carries a
  // (shard, site, epoch, seq) stamp that some recorded upstream send
  // produced, and no stamp is delivered twice.
  using Stamp = std::tuple<int16_t, int16_t, uint32_t, uint32_t>;
  std::set<Stamp> sends;
  for (const TraceEvent& e : events) {
    if (e.type == EventType::kMsgSend && e.dir == 1 && e.seq > 0) {
      sends.insert({e.shard, e.site, e.epoch, e.seq});
    }
  }
  std::set<Stamp> delivered;
  for (const TraceEvent& e : events) {
    if (e.type != EventType::kMsgDeliver) continue;
    const Stamp stamp{e.shard, e.site, e.epoch, e.seq};
    EXPECT_TRUE(delivered.insert(stamp).second)
        << "stamp delivered twice: shard " << e.shard << " site " << e.site
        << " epoch " << e.epoch << " seq " << e.seq;
    if (e.seq > 0) {
      EXPECT_TRUE(sends.count(stamp))
          << "delivery without recorded send: shard " << e.shard << " site "
          << e.site << " epoch " << e.epoch << " seq " << e.seq;
    }
  }
  EXPECT_EQ(delivered.size(), report.delivered);

  // The registry export of the same report round-trips its fields.
  Snapshot snap;
  AppendFaultReport(report, "faults", &snap);
  EXPECT_EQ(Uint(snap, "faults/delivered"), report.delivered);
  EXPECT_EQ(Uint(snap, "faults/retransmits_sent"), report.retransmits_sent);
  EXPECT_EQ(Uint(snap, "faults/faults_dropped"), report.faults_dropped);
  EXPECT_EQ(Uint(snap, "faults/transcript_hash"), report.transcript_hash);
}

}  // namespace
}  // namespace dwrs
