// Live query serving: the lock-free snapshot publisher, the QueryService
// merge, and the consistency harness the tentpole demands — concurrent
// readers hammering the service mid-ingestion while a referee checks
// that every returned snapshot is a valid quiesce-point state (monotone
// publish/state versions, per-shard epoch coherence, sample invariants,
// O(s) space), plus chi-square exactness of served samples at
// S ∈ {1, 2, 4}, bit-for-bit equivalence of the engine's coordinator-
// thread publication against the step-synchronous simulator reference,
// and crashed/gapped-shard staleness semantics (last clean epoch,
// flagged, never silently merged).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/sharded_sampler.h"
#include "engine/sharded_engine.h"
#include "faults/harness.h"
#include "l1/l1_tracker.h"
#include "query/capture.h"
#include "query/live.h"
#include "query/query_service.h"
#include "query/snapshot.h"
#include "random/rng.h"
#include "sim/deployment.h"
#include "sim/sharded_runtime.h"
#include "stream/workload.h"
#include "test_util.h"

namespace dwrs {
namespace {

using engine::ShardedEngine;
using engine::ShardedEngineConfig;
using faults::Backend;
using faults::FaultConfig;
using faults::FaultyWswor;
using faults::RunReport;
using faults::ShardedFaultyWswor;
using query::LiveShardPublishers;
using query::QueryResult;
using query::QueryService;
using query::ShardSnapshot;
using query::SnapshotPublisher;

Workload ZipfWorkload(int k, uint64_t n, uint64_t seed) {
  return WorkloadBuilder()
      .num_sites(k)
      .num_items(n)
      .seed(seed)
      .weights(std::make_unique<ZipfWeights>(uint64_t{1} << 16, 1.2))
      .partitioner(std::make_unique<RandomPartitioner>())
      .Build();
}

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

std::vector<uint64_t> Ids(const std::vector<KeyedItem>& entries) {
  std::vector<uint64_t> out;
  for (const KeyedItem& ki : entries) out.push_back(ki.item.id);
  return out;
}

KeyedItem KI(uint64_t id, double weight, double key) {
  return KeyedItem{Item{id, weight}, key};
}

ShardSnapshot TopKeySnapshot(uint64_t version, size_t s,
                             std::vector<KeyedItem> entries) {
  ShardSnapshot snap;
  snap.state_version = version;
  snap.sample.kind = SampleKind::kTopKey;
  snap.sample.target_size = s;
  snap.sample.state_version = version;
  snap.sample.entries = std::move(entries);
  return snap;
}

// ---------------------------------------------------------------------
// SnapshotPublisher mechanics.

TEST(SnapshotPublisherTest, ReadReturnsFalseBeforeFirstPublish) {
  SnapshotPublisher publisher;
  ShardSnapshot snap;
  EXPECT_FALSE(publisher.Read(&snap));
  EXPECT_EQ(publisher.publish_count(), 0u);
}

TEST(SnapshotPublisherTest, PublishAssignsMonotoneSequence) {
  SnapshotPublisher publisher;
  for (uint64_t v = 1; v <= 5; ++v) {
    publisher.Publish(TopKeySnapshot(v, 2, {KI(v, 1.0, double(v))}));
    ShardSnapshot snap;
    ASSERT_TRUE(publisher.Read(&snap));
    EXPECT_EQ(snap.publish_seq, v);
    EXPECT_EQ(snap.state_version, v);
    ASSERT_EQ(snap.sample.entries.size(), 1u);
    EXPECT_EQ(snap.sample.entries[0].item.id, v);
  }
  EXPECT_EQ(publisher.publish_count(), 5u);
}

TEST(SnapshotPublisherTest, DegradedPublishFreezesContentAtLastClean) {
  SnapshotPublisher publisher;
  ShardSnapshot clean = TopKeySnapshot(7, 2, {KI(1, 1.0, 9.0)});
  clean.threshold = 3.5;
  clean.steps = 100;
  publisher.Publish(clean);

  // Degraded capture with newer content: the published snapshot must
  // carry the LAST CLEAN content (version 7, id 1, threshold 3.5) under
  // the stale flag, with the degraded capture's coherence stamps.
  ShardSnapshot degraded = TopKeySnapshot(9, 2, {KI(2, 1.0, 1.0)});
  degraded.stale = true;
  degraded.threshold = 4.0;
  degraded.steps = 140;
  degraded.session_epoch = 2;
  publisher.Publish(degraded);

  ShardSnapshot snap;
  ASSERT_TRUE(publisher.Read(&snap));
  EXPECT_TRUE(snap.stale);
  EXPECT_EQ(snap.publish_seq, 2u);
  EXPECT_EQ(snap.state_version, 7u);
  EXPECT_DOUBLE_EQ(snap.threshold, 3.5);
  ASSERT_EQ(snap.sample.entries.size(), 1u);
  EXPECT_EQ(snap.sample.entries[0].item.id, 1u);
  // Liveness stamps stay the caller's.
  EXPECT_EQ(snap.steps, 140u);
  EXPECT_EQ(snap.session_epoch, 2u);

  // A clean publish resumes normal serving.
  publisher.Publish(TopKeySnapshot(11, 2, {KI(3, 1.0, 2.0)}));
  ASSERT_TRUE(publisher.Read(&snap));
  EXPECT_FALSE(snap.stale);
  EXPECT_EQ(snap.state_version, 11u);
}

TEST(SnapshotPublisherTest, FirstPublishMayBeStale) {
  // No clean state to fall back on: content is kept, flag raised.
  SnapshotPublisher publisher;
  ShardSnapshot snap = TopKeySnapshot(3, 2, {KI(5, 1.0, 1.0)});
  snap.stale = true;
  publisher.Publish(snap);
  ShardSnapshot out;
  ASSERT_TRUE(publisher.Read(&out));
  EXPECT_TRUE(out.stale);
  EXPECT_EQ(out.state_version, 3u);
  ASSERT_EQ(out.sample.entries.size(), 1u);
  EXPECT_EQ(out.sample.entries[0].item.id, 5u);
}

// The lock-free core under contention: one writer republishing
// self-consistent snapshots, several readers validating that every copy
// is coherent (all fields from ONE publish) and versions never go
// backwards. Run under TSan in CI.
TEST(SnapshotPublisherTest, ConcurrentReadersSeeCoherentSnapshots) {
  SnapshotPublisher publisher;
  constexpr uint64_t kMinPublishes = 20000;
  constexpr uint64_t kMinReadsEach = 50;
  constexpr int kReaders = 4;

  std::atomic<bool> stop{false};
  std::vector<std::string> errors(kReaders);
  std::vector<std::atomic<uint64_t>> reads(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&publisher, &stop, &errors, &reads, r] {
      uint64_t last_seq = 0;
      ShardSnapshot snap;
      while (!stop.load(std::memory_order_acquire)) {
        if (!publisher.Read(&snap)) continue;
        reads[static_cast<size_t>(r)].fetch_add(1,
                                                std::memory_order_relaxed);
        std::ostringstream err;
        const uint64_t v = snap.state_version;
        // Coherence: every field must come from the same publish.
        if (snap.threshold != static_cast<double>(v) ||
            snap.steps != 3 * v || snap.sample.state_version != v ||
            snap.sample.entries.size() != 1 + (v % 3) ||
            (snap.sample.entries.size() > 1 &&
             snap.sample.entries[0].item.id != v)) {
          err << "torn snapshot at version " << v << "; ";
        }
        if (snap.publish_seq < last_seq) {
          err << "publish_seq regressed " << last_seq << " -> "
              << snap.publish_seq << "; ";
        }
        last_seq = snap.publish_seq;
        errors[static_cast<size_t>(r)] += err.str();
      }
    });
  }

  // Publish at least kMinPublishes, then keep the writer going (with
  // yields, so a single-core box schedules the readers) until every
  // reader has seen a healthy number of snapshots.
  const auto slowest_reads = [&reads] {
    uint64_t slowest = ~uint64_t{0};
    for (const auto& r : reads) {
      slowest = std::min(slowest, r.load(std::memory_order_relaxed));
    }
    return slowest;
  };
  for (uint64_t v = 1; v <= kMinPublishes || slowest_reads() < kMinReadsEach;
       ++v) {
    ShardSnapshot snap;
    snap.state_version = v;
    snap.threshold = static_cast<double>(v);
    snap.steps = 3 * v;
    snap.sample.kind = SampleKind::kTopKey;
    snap.sample.target_size = 4;
    snap.sample.state_version = v;
    for (uint64_t e = 0; e < 1 + (v % 3); ++e) {
      snap.sample.entries.push_back(
          KI(v, 1.0, static_cast<double>(2 * v - e)));
    }
    publisher.Publish(std::move(snap));
    if (v % 64 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(errors[static_cast<size_t>(r)], "") << " reader " << r;
    EXPECT_GE(reads[static_cast<size_t>(r)].load(), kMinReadsEach)
        << " reader " << r;
  }
}

// The merge cache's monotonicity rests on this order: the sequence
// probe is stored before the snapshot becomes readable, so a reader
// that copied publish n never probes less than n afterwards. (With the
// probe stored after the swap, a reader could be served publish n, hit
// a cached cut holding n - 1, and see the shard go backwards.)
TEST(SnapshotPublisherTest, SequenceProbeNeverLagsARead) {
  SnapshotPublisher publisher;
  constexpr uint64_t kMinPublishes = 20000;
  constexpr uint64_t kMinReadsEach = 50;
  constexpr int kReaders = 2;

  std::atomic<bool> stop{false};
  std::vector<uint64_t> lagging(kReaders, 0);
  std::vector<std::atomic<uint64_t>> reads(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&publisher, &stop, &lagging, &reads, r] {
      ShardSnapshot snap;
      while (!stop.load(std::memory_order_acquire)) {
        if (!publisher.Read(&snap)) continue;
        if (publisher.latest_seq() < snap.publish_seq) {
          ++lagging[static_cast<size_t>(r)];
        }
        reads[static_cast<size_t>(r)].fetch_add(1,
                                                std::memory_order_relaxed);
      }
    });
  }
  const auto slowest_reads = [&reads] {
    uint64_t slowest = ~uint64_t{0};
    for (const auto& r : reads) {
      slowest = std::min(slowest, r.load(std::memory_order_relaxed));
    }
    return slowest;
  };
  for (uint64_t v = 1; v <= kMinPublishes || slowest_reads() < kMinReadsEach;
       ++v) {
    publisher.Publish(TopKeySnapshot(v, 4, {KI(v, 1.0, 1.0)}));
    if (v % 64 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(lagging[static_cast<size_t>(r)], 0u) << " reader " << r;
    EXPECT_GE(reads[static_cast<size_t>(r)].load(), kMinReadsEach)
        << " reader " << r;
  }
}

// ---------------------------------------------------------------------
// Snapshot ring: time-travel reads and eviction semantics.

TEST(SnapshotRingTest, ReadAsOfServesNewestRetainedAtOrBelowVersion) {
  SnapshotPublisher publisher(/*ring_depth=*/4);
  for (uint64_t v : {10, 20, 30, 40, 50, 60}) {
    publisher.Publish(TopKeySnapshot(v, 2, {KI(v, 1.0, double(v))}));
  }
  // Retained: versions 30, 40, 50, 60 (10 and 20 evicted).
  ShardSnapshot snap;
  ASSERT_TRUE(publisher.ReadAsOf(1000, &snap));
  EXPECT_EQ(snap.state_version, 60u);
  ASSERT_TRUE(publisher.ReadAsOf(60, &snap));
  EXPECT_EQ(snap.state_version, 60u);
  ASSERT_TRUE(publisher.ReadAsOf(59, &snap));
  EXPECT_EQ(snap.state_version, 50u);
  ASSERT_TRUE(publisher.ReadAsOf(35, &snap));
  EXPECT_EQ(snap.state_version, 30u);
  EXPECT_EQ(snap.sample.entries[0].item.id, 30u);
  // Exactly the oldest retained version is still servable...
  ASSERT_TRUE(publisher.ReadAsOf(30, &snap));
  EXPECT_EQ(snap.state_version, 30u);
  // ...but one below it is history beyond the ring depth: eviction is a
  // hard miss, never an approximation by a newer snapshot.
  EXPECT_FALSE(publisher.ReadAsOf(29, &snap));
  EXPECT_FALSE(publisher.ReadAsOf(0, &snap));
}

TEST(SnapshotRingTest, DefaultDepthDegeneratesToLatestOnly) {
  SnapshotPublisher publisher;  // ring_depth = 1
  EXPECT_EQ(publisher.ring_depth(), 1);
  ShardSnapshot snap;
  EXPECT_FALSE(publisher.ReadAsOf(100, &snap));
  publisher.Publish(TopKeySnapshot(5, 2, {KI(1, 1.0, 1.0)}));
  publisher.Publish(TopKeySnapshot(9, 2, {KI(2, 1.0, 2.0)}));
  ASSERT_TRUE(publisher.ReadAsOf(9, &snap));
  EXPECT_EQ(snap.state_version, 9u);
  // Version 5 was the previous publish — already evicted at depth 1.
  EXPECT_FALSE(publisher.ReadAsOf(8, &snap));
}

TEST(SnapshotRingTest, DegradedPublishesKeepVersionsNondecreasing) {
  // Stale publishes freeze at the last clean version, so the ring can
  // hold duplicate versions; ReadAsOf must pick the newest publish.
  SnapshotPublisher publisher(/*ring_depth=*/4);
  publisher.Publish(TopKeySnapshot(7, 2, {KI(1, 1.0, 5.0)}));
  ShardSnapshot degraded = TopKeySnapshot(9, 2, {KI(2, 1.0, 1.0)});
  degraded.stale = true;
  publisher.Publish(degraded);
  ShardSnapshot snap;
  ASSERT_TRUE(publisher.ReadAsOf(7, &snap));
  EXPECT_EQ(snap.state_version, 7u);
  EXPECT_EQ(snap.publish_seq, 2u);  // the (frozen) stale republish
  EXPECT_TRUE(snap.stale);          // the flag rides along — never silent
}

// The ring under contention: one writer rotating slots, readers doing
// time-travel reads at random version bounds. Every returned copy must
// be coherent (all fields from one publish) and satisfy its bound. Run
// under TSan in CI.
TEST(SnapshotRingTest, ConcurrentTimeTravelReadersSeeCoherentSnapshots) {
  constexpr int kReaders = 4;
  constexpr int kRingDepth = 8;
  constexpr uint64_t kMinPublishes = 15000;
  constexpr uint64_t kMinReadsEach = 50;
  SnapshotPublisher publisher(kRingDepth);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> published_version{0};
  std::vector<std::string> errors(kReaders);
  std::vector<std::atomic<uint64_t>> reads(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&publisher, &stop, &errors, &reads,
                          &published_version, r] {
      Rng rng(1000 + static_cast<uint64_t>(r));
      ShardSnapshot snap;
      while (!stop.load(std::memory_order_acquire)) {
        // Bound near the write frontier so hits and evictions both occur.
        const uint64_t frontier =
            published_version.load(std::memory_order_acquire);
        const uint64_t bound =
            frontier <= 1 ? 1 : frontier - rng.NextBounded(2 * kRingDepth);
        if (!publisher.ReadAsOf(bound, &snap)) continue;
        reads[static_cast<size_t>(r)].fetch_add(1,
                                                std::memory_order_relaxed);
        std::ostringstream err;
        const uint64_t v = snap.state_version;
        if (v > bound) err << "bound " << bound << " violated by " << v << "; ";
        // Coherence: every field must come from the same publish.
        if (snap.threshold != static_cast<double>(v) || snap.steps != 3 * v ||
            snap.sample.state_version != v ||
            snap.sample.entries.size() != 1 + (v % 3)) {
          err << "torn snapshot at version " << v << "; ";
        }
        errors[static_cast<size_t>(r)] += err.str();
      }
    });
  }

  const auto slowest_reads = [&reads] {
    uint64_t slowest = ~uint64_t{0};
    for (const auto& r : reads) {
      slowest = std::min(slowest, r.load(std::memory_order_relaxed));
    }
    return slowest;
  };
  for (uint64_t v = 1; v <= kMinPublishes || slowest_reads() < kMinReadsEach;
       ++v) {
    ShardSnapshot snap;
    snap.state_version = v;
    snap.threshold = static_cast<double>(v);
    snap.steps = 3 * v;
    snap.sample.kind = SampleKind::kTopKey;
    snap.sample.target_size = 4;
    snap.sample.state_version = v;
    for (uint64_t e = 0; e < 1 + (v % 3); ++e) {
      snap.sample.entries.push_back(KI(v, 1.0, static_cast<double>(2 * v - e)));
    }
    publisher.Publish(std::move(snap));
    published_version.store(v, std::memory_order_release);
    if (v % 64 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(errors[static_cast<size_t>(r)], "") << " reader " << r;
    EXPECT_GE(reads[static_cast<size_t>(r)].load(), kMinReadsEach)
        << " reader " << r;
  }
}

// ---------------------------------------------------------------------
// QueryService merge semantics.

TEST(QueryServiceTest, IncompleteUntilEveryShardPublishes) {
  SnapshotPublisher a, b;
  QueryService service({&a, &b});
  EXPECT_FALSE(service.Query().complete);

  a.Publish(TopKeySnapshot(1, 2, {KI(1, 1.0, 5.0)}));
  QueryResult partial = service.Query();
  EXPECT_FALSE(partial.complete);
  // The published shard's slice is still served (flagged incomplete).
  EXPECT_EQ(Ids(partial.merged.TopEntries()), std::vector<uint64_t>{1});
  EXPECT_EQ(partial.shards[1].publish_seq, 0u);

  b.Publish(TopKeySnapshot(1, 2, {KI(2, 1.0, 7.0)}));
  QueryResult full = service.Query();
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(Ids(full.merged.TopEntries()), (std::vector<uint64_t>{2, 1}));
}

TEST(QueryServiceTest, FlagsStaleShardsAndSumsScalars) {
  SnapshotPublisher a, b;
  ShardSnapshot sa = TopKeySnapshot(4, 2, {KI(1, 1.0, 5.0)});
  sa.l1_estimate = 10.0;
  sa.steps = 100;
  a.Publish(sa);
  ShardSnapshot clean_b = TopKeySnapshot(2, 2, {KI(2, 1.0, 3.0)});
  clean_b.l1_estimate = 4.0;
  clean_b.steps = 50;
  b.Publish(clean_b);
  ShardSnapshot stale_b = clean_b;
  stale_b.stale = true;
  stale_b.session_epoch = 1;
  b.Publish(stale_b);

  QueryService service({&a, &b});
  const QueryResult result = service.Query();
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.any_stale);
  EXPECT_EQ(result.stale_shards, std::vector<int>{1});
  EXPECT_FALSE(result.shards[0].stale);
  EXPECT_TRUE(result.shards[1].stale);
  EXPECT_DOUBLE_EQ(result.l1_estimate, 14.0);
  EXPECT_EQ(result.steps, 150u);
  EXPECT_EQ(Ids(result.merged.TopEntries()), (std::vector<uint64_t>{1, 2}));
}

TEST(QueryServiceTest, EstimatorServesExactSumsBeforeSampleFills) {
  // Fewer merged candidates than s: no shard can have announced a
  // threshold, so the estimator must serve the complete candidate set
  // with tau = 0 (exact sums) instead of peeling an entry off as tau.
  SnapshotPublisher publisher;
  publisher.Publish(
      TopKeySnapshot(2, /*s=*/4, {KI(0, 3.0, 9.0), KI(1, 7.0, 5.0)}));
  QueryService service({&publisher});
  const ThresholdedSample ts = service.EstimatorSample();
  EXPECT_DOUBLE_EQ(ts.tau, 0.0);
  EXPECT_EQ(ts.top.size(), 2u);
  EXPECT_DOUBLE_EQ(service.TotalWeight(), 10.0);
  EXPECT_DOUBLE_EQ(
      service.SubsetCount([](const Item&) { return true; }), 2.0);

  // Once the s-th candidate exists the threshold conditioning kicks in.
  publisher.Publish(TopKeySnapshot(
      4, /*s=*/4,
      {KI(0, 3.0, 9.0), KI(1, 7.0, 5.0), KI(2, 1.0, 4.0), KI(3, 2.0, 2.0)}));
  const ThresholdedSample full = service.EstimatorSample();
  EXPECT_DOUBLE_EQ(full.tau, 2.0);
  EXPECT_EQ(full.top.size(), 3u);
}

// ---------------------------------------------------------------------
// The root-merge cache.

TEST(MergeCacheTest, HitsUntilAnyShardPublishes) {
  SnapshotPublisher a, b;
  a.Publish(TopKeySnapshot(1, 2, {KI(1, 1.0, 5.0)}));
  b.Publish(TopKeySnapshot(1, 2, {KI(2, 1.0, 7.0)}));
  QueryService service({&a, &b});

  const auto first = service.QueryShared();
  ASSERT_TRUE(first->complete);
  EXPECT_EQ(Ids(first->merged.TopEntries()), (std::vector<uint64_t>{2, 1}));
  const auto second = service.QueryShared();
  // A hit serves the very same cached object — O(1), no re-merge, no
  // per-shard snapshot copies.
  EXPECT_EQ(first.get(), second.get());

  auto stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_invalidations, 0u);
  EXPECT_EQ(stats.snapshot_copies_avoided, 2u);  // hits * shards

  // Any shard's publish invalidates: the next query re-merges.
  b.Publish(TopKeySnapshot(2, 2, {KI(3, 1.0, 9.0)}));
  const auto third = service.QueryShared();
  EXPECT_NE(first.get(), third.get());
  // Shard b's new snapshot replaced its old one: the merge now sees
  // {3} from b and {1} from a.
  EXPECT_EQ(Ids(third->merged.TopEntries()), (std::vector<uint64_t>{3, 1}));
  stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_invalidations, 1u);

  // The invalidated result a reader still holds stays valid and
  // unchanged — invalidation swaps the cache, it never mutates a
  // served entry.
  EXPECT_EQ(Ids(first->merged.TopEntries()), (std::vector<uint64_t>{2, 1}));
  EXPECT_EQ(first->shards[1].state_version, 1u);
}

TEST(MergeCacheTest, CachedAndUncachedAnswersAgree) {
  SnapshotPublisher a, b;
  a.Publish(TopKeySnapshot(3, 4, {KI(1, 2.0, 8.0), KI(4, 1.0, 2.0)}));
  b.Publish(TopKeySnapshot(5, 4, {KI(2, 1.0, 7.0), KI(3, 3.0, 4.0)}));
  QueryService service({&a, &b});
  const QueryResult uncached = service.Query();
  const auto cached = service.QueryShared();
  EXPECT_EQ(Ids(cached->merged.TopEntries()),
            Ids(uncached.merged.TopEntries()));
  EXPECT_EQ(cached->complete, uncached.complete);
  EXPECT_EQ(cached->steps, uncached.steps);
  ASSERT_EQ(cached->shards.size(), uncached.shards.size());
  for (size_t j = 0; j < cached->shards.size(); ++j) {
    EXPECT_EQ(cached->shards[j].publish_seq, uncached.shards[j].publish_seq);
    EXPECT_EQ(cached->shards[j].state_version,
              uncached.shards[j].state_version);
  }
}

// The cache is per reader thread: each thread builds, keeps and serves
// its own entry, and the service's counters sum the threads' slots.
TEST(MergeCacheTest, EachReaderThreadKeepsItsOwnEntry) {
  constexpr int kQueriesEach = 5;
  SnapshotPublisher a, b;
  a.Publish(TopKeySnapshot(1, 2, {KI(1, 1.0, 5.0)}));
  b.Publish(TopKeySnapshot(1, 2, {KI(2, 1.0, 7.0)}));
  QueryService service({&a, &b});

  // One thread after the other, so the outcome does not depend on the
  // schedule: a cache shared between threads would hand the second
  // thread the first one's entry.
  std::vector<std::shared_ptr<const QueryResult>> served[2];
  for (auto& mine : served) {
    std::thread reader([&service, &mine] {
      for (int q = 0; q < kQueriesEach; ++q) {
        mine.push_back(service.QueryShared());
      }
    });
    reader.join();
  }
  for (const auto& mine : served) {
    ASSERT_EQ(mine.size(), static_cast<size_t>(kQueriesEach));
    EXPECT_EQ(Ids(mine[0]->merged.TopEntries()),
              (std::vector<uint64_t>{2, 1}));
    for (const auto& result : mine) EXPECT_EQ(result.get(), mine[0].get());
  }
  EXPECT_NE(served[0][0].get(), served[1][0].get());

  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_invalidations, 0u);
  EXPECT_EQ(stats.cache_hits, 2u * (kQueriesEach - 1));
  EXPECT_EQ(stats.snapshot_copies_avoided, stats.cache_hits * 2);

  // A service built in the storage of one that died, on the same thread,
  // over publishers at the same sequences: the thread's slot of the dead
  // service must not be taken for the new one's.
  std::optional<QueryService> scoped;
  scoped.emplace(std::vector<const SnapshotPublisher*>{&a, &b});
  (void)scoped->QueryShared();
  (void)scoped->QueryShared();
  EXPECT_EQ(scoped->stats().cache_hits, 1u);
  scoped.reset();
  SnapshotPublisher c, d;
  c.Publish(TopKeySnapshot(1, 2, {KI(3, 1.0, 4.0)}));
  d.Publish(TopKeySnapshot(1, 2, {KI(4, 1.0, 6.0)}));
  scoped.emplace(std::vector<const SnapshotPublisher*>{&c, &d});
  const auto fresh = scoped->QueryShared();
  EXPECT_EQ(Ids(fresh->merged.TopEntries()), (std::vector<uint64_t>{4, 3}));
  const auto fresh_stats = scoped->stats();
  EXPECT_EQ(fresh_stats.cache_misses, 1u);
  EXPECT_EQ(fresh_stats.cache_hits, 0u);
}

// The invalidation race: publishes landing while concurrent readers
// serve from and rebuild their caches. Every served result must be
// coherent (all fields of each shard's slice from one publish, the key
// vector matching the slices) and per-reader monotone. Half the readers
// take the estimator route (EstimatorSample over the cache), whose
// served entries must each be a published one and whose largest served
// id never goes back. Run under TSan in CI — this is the torn-sequence-
// vector check.
TEST(MergeCacheTest, ConcurrentCachedReadersDuringPublishes) {
  constexpr int kReaders = 4;
  constexpr int kShards = 2;
  constexpr uint64_t kMinPublishes = 15000;
  constexpr uint64_t kMinReadsEach = 50;
  SnapshotPublisher publishers[kShards];
  QueryService service({&publishers[0], &publishers[1]});

  std::atomic<bool> stop{false};
  // Raised before each publish, so every id a reader is served is at
  // most the value it loads after the read.
  std::atomic<uint64_t> published_upto{0};
  std::vector<std::string> errors(kReaders);
  std::vector<std::atomic<uint64_t>> reads(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    if (r % 2 == 1) {
      readers.emplace_back([&service, &stop, &published_upto, &errors, &reads,
                            r] {
        uint64_t last_max = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const ThresholdedSample sample = service.EstimatorSample();
          const uint64_t upto = published_upto.load(std::memory_order_acquire);
          std::ostringstream err;
          uint64_t max_id = 0;
          for (const KeyedItem& ki : sample.top) {
            // Each publish v carries the one entry KI(v, 1.0, v).
            if (ki.item.id == 0 || ki.item.id > upto ||
                ki.key != static_cast<double>(ki.item.id) ||
                ki.item.weight != 1.0) {
              err << "unpublished entry " << ki.item.id << "; ";
            }
            max_id = std::max(max_id, ki.item.id);
          }
          if (max_id < last_max) err << "largest id went back; ";
          last_max = max_id;
          errors[static_cast<size_t>(r)] += err.str();
          if (sample.top.size() == kShards) {
            reads[static_cast<size_t>(r)].fetch_add(1,
                                                    std::memory_order_relaxed);
          }
        }
      });
      continue;
    }
    readers.emplace_back([&service, &stop, &errors, &reads, r] {
      std::vector<uint64_t> last_seq(kShards, 0);
      while (!stop.load(std::memory_order_acquire)) {
        const auto result = service.QueryShared();
        if (!result->complete) continue;
        reads[static_cast<size_t>(r)].fetch_add(1,
                                                std::memory_order_relaxed);
        std::ostringstream err;
        for (int j = 0; j < kShards; ++j) {
          const ShardSnapshot& snap = result->shards[static_cast<size_t>(j)];
          const uint64_t v = snap.state_version;
          // Per-slice coherence (same self-consistent stamps as the
          // publisher stress tests).
          if (snap.threshold != static_cast<double>(v) ||
              snap.steps != 3 * v + static_cast<uint64_t>(j) ||
              snap.sample.state_version != v) {
            err << "torn shard " << j << " slice at version " << v << "; ";
          }
          if (snap.publish_seq < last_seq[static_cast<size_t>(j)]) {
            err << "shard " << j << " publish_seq regressed; ";
          }
          last_seq[static_cast<size_t>(j)] = snap.publish_seq;
        }
        errors[static_cast<size_t>(r)] += err.str();
      }
    });
  }

  const auto slowest_reads = [&reads] {
    uint64_t slowest = ~uint64_t{0};
    for (const auto& r : reads) {
      slowest = std::min(slowest, r.load(std::memory_order_relaxed));
    }
    return slowest;
  };
  Rng rng(4242);
  for (uint64_t v = 1; v <= kMinPublishes || slowest_reads() < kMinReadsEach;
       ++v) {
    // Publish to a random shard so the cache key vector advances
    // unevenly — the torn-vector hazard the double check must kill.
    const int j = static_cast<int>(rng.NextBounded(kShards));
    ShardSnapshot snap;
    snap.state_version = v;
    snap.threshold = static_cast<double>(v);
    snap.steps = 3 * v + static_cast<uint64_t>(j);
    snap.sample.kind = SampleKind::kTopKey;
    snap.sample.target_size = 4;
    snap.sample.state_version = v;
    snap.sample.entries.push_back(KI(v, 1.0, static_cast<double>(v)));
    published_upto.store(v, std::memory_order_release);
    publishers[j].Publish(std::move(snap));
    if (v % 64 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(errors[static_cast<size_t>(r)], "") << " reader " << r;
    EXPECT_GE(reads[static_cast<size_t>(r)].load(), kMinReadsEach)
        << " reader " << r;
  }
  const auto stats = service.stats();
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_EQ(stats.snapshot_copies_avoided, stats.cache_hits * kShards);
}

// ---------------------------------------------------------------------
// Freshness SLOs.

TEST(FreshnessSloTest, AlreadyFreshServesWithoutWaiting) {
  SnapshotPublisher publisher;
  publisher.Publish(TopKeySnapshot(10, 2, {KI(1, 1.0, 5.0)}));
  QueryService service({&publisher});
  query::QueryOptions options;
  options.min_version = 10;
  options.max_staleness = std::chrono::seconds(10);
  const QueryResult result = service.Query(options);
  EXPECT_TRUE(result.version_satisfied);
  EXPECT_TRUE(result.lagging_shards.empty());
  EXPECT_EQ(result.shards[0].state_version, 10u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.slo_waits, 0u);
  EXPECT_EQ(stats.slo_timeouts, 0u);
}

TEST(FreshnessSloTest, TimeoutServesFlaggedNotStaleMerged) {
  SnapshotPublisher a, b;
  a.Publish(TopKeySnapshot(5, 2, {KI(1, 1.0, 5.0)}));
  b.Publish(TopKeySnapshot(50, 2, {KI(2, 1.0, 7.0)}));
  QueryService service({&a, &b});
  query::QueryOptions options;
  options.min_version = 50;  // shard 0 will never get there
  options.max_staleness = std::chrono::milliseconds(20);
  const QueryResult result = service.Query(options);
  // Served, flagged, with the lagging shard listed — and the merged
  // content is the real current state, not silently dropped or frozen.
  EXPECT_FALSE(result.version_satisfied);
  EXPECT_EQ(result.lagging_shards, std::vector<int>{0});
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.any_stale);  // SLO lag is not fault staleness
  EXPECT_EQ(Ids(result.merged.TopEntries()), (std::vector<uint64_t>{2, 1}));
  const auto stats = service.stats();
  EXPECT_EQ(stats.slo_waits, 1u);
  EXPECT_EQ(stats.slo_timeouts, 1u);
}

TEST(FreshnessSloTest, WaitIsSatisfiedByConcurrentPublish) {
  SnapshotPublisher publisher;
  publisher.Publish(TopKeySnapshot(1, 2, {KI(1, 1.0, 5.0)}));
  QueryService service({&publisher});
  std::thread writer([&publisher] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    publisher.Publish(TopKeySnapshot(7, 2, {KI(2, 1.0, 9.0)}));
  });
  query::QueryOptions options;
  options.min_version = 7;
  options.max_staleness = std::chrono::seconds(30);
  const QueryResult result = service.Query(options);
  writer.join();
  EXPECT_TRUE(result.version_satisfied);
  EXPECT_TRUE(result.lagging_shards.empty());
  EXPECT_GE(result.shards[0].state_version, 7u);
  // The version-7 publish replaced the shard's snapshot wholesale.
  EXPECT_EQ(Ids(result.merged.TopEntries()), std::vector<uint64_t>{2});
  const auto stats = service.stats();
  EXPECT_EQ(stats.slo_waits, 1u);
  EXPECT_EQ(stats.slo_timeouts, 0u);
}

TEST(FreshnessSloTest, WaitForStateVersionDirectly) {
  SnapshotPublisher publisher;
  publisher.Publish(TopKeySnapshot(3, 2, {KI(1, 1.0, 5.0)}));
  EXPECT_TRUE(publisher.WaitForStateVersion(3, std::chrono::nanoseconds(0)));
  EXPECT_FALSE(
      publisher.WaitForStateVersion(4, std::chrono::milliseconds(5)));
  publisher.Publish(TopKeySnapshot(4, 2, {KI(2, 1.0, 6.0)}));
  EXPECT_TRUE(publisher.WaitForStateVersion(4, std::chrono::nanoseconds(0)));
}

// ---------------------------------------------------------------------
// The concurrent reader/writer stress harness.

// Accumulates referee verdicts off-thread (gtest assertions are not
// thread-safe on failure); the main thread asserts after joining.
struct RefereeState {
  explicit RefereeState(int num_shards)
      : publish_seq(static_cast<size_t>(num_shards), 0),
        state_version(static_cast<size_t>(num_shards), 0),
        steps(static_cast<size_t>(num_shards), 0),
        session_epoch(static_cast<size_t>(num_shards), 0),
        threshold(static_cast<size_t>(num_shards), 0.0) {}

  std::vector<uint64_t> publish_seq;
  std::vector<uint64_t> state_version;
  std::vector<uint64_t> steps;
  std::vector<uint64_t> session_epoch;
  std::vector<double> threshold;
  size_t merged_size = 0;
  uint64_t reads = 0;
  std::string errors;
};

// The quiesce-point-validity referee: every query result must look like
// a state the protocol could legally be in at some prefix — versions,
// steps, epochs and thresholds only move forward per shard, the merged
// sample is a well-formed weighted SWOR answer, and per-shard summaries
// respect the paper's O(s) space bound.
void Referee(const QueryResult& result, size_t s, uint64_t max_items,
             bool expect_clean, RefereeState& st) {
  ++st.reads;
  std::ostringstream err;
  const size_t num_shards = st.publish_seq.size();
  if (result.shards.size() != num_shards) {
    err << "shard count " << result.shards.size() << " != " << num_shards
        << "; ";
  }
  for (size_t j = 0; j < result.shards.size() && j < num_shards; ++j) {
    const ShardSnapshot& snap = result.shards[j];
    if (snap.publish_seq == 0) continue;  // not published yet
    if (snap.publish_seq < st.publish_seq[j]) {
      err << "shard " << j << " publish_seq regressed; ";
    }
    if (snap.state_version < st.state_version[j]) {
      err << "shard " << j << " state_version regressed; ";
    }
    if (snap.steps < st.steps[j]) err << "shard " << j << " steps regressed; ";
    if (snap.session_epoch < st.session_epoch[j]) {
      err << "shard " << j << " session epoch regressed; ";
    }
    if (snap.threshold + 1e-12 < st.threshold[j]) {
      err << "shard " << j << " threshold regressed; ";
    }
    if (expect_clean && snap.stale) err << "shard " << j << " stale; ";
    // Proposition 6 space audit on the exported summary.
    if (snap.sample.entries.size() > s) {
      err << "shard " << j << " exports " << snap.sample.entries.size()
          << " > s entries; ";
    }
    if (snap.sample.withheld.size() > s) {
      err << "shard " << j << " exports " << snap.sample.withheld.size()
          << " > s withheld; ";
    }
    st.publish_seq[j] = snap.publish_seq;
    st.state_version[j] = snap.state_version;
    st.steps[j] = snap.steps;
    st.session_epoch[j] = snap.session_epoch;
    st.threshold[j] = snap.threshold;
  }
  const std::vector<KeyedItem> top = result.merged.TopEntries();
  if (top.size() > s) err << "merged sample larger than s; ";
  if (result.complete && top.size() < st.merged_size) {
    err << "merged sample shrank " << st.merged_size << " -> " << top.size()
        << "; ";
  }
  std::set<uint64_t> ids;
  for (size_t i = 0; i < top.size(); ++i) {
    if (!(top[i].key > 0.0)) err << "non-positive key; ";
    if (i > 0 && top[i - 1].key < top[i].key) err << "keys not descending; ";
    if (top[i].item.id >= max_items) err << "id out of range; ";
    ids.insert(top[i].item.id);
  }
  if (ids.size() != top.size()) err << "duplicate ids in merged sample; ";
  if (result.complete) st.merged_size = top.size();
  st.errors += err.str();
}

TEST(LiveQueryStressTest, ConcurrentReadersDuringIngestion) {
  constexpr int kReaders = 4;
  constexpr int k = 8;
  constexpr int s = 16;
  constexpr uint64_t n = 25000;
  for (int shards : {1, 2, 4}) {
    WsworConfig config;
    config.num_sites = k;
    config.sample_size = s;
    config.seed = 90 + static_cast<uint64_t>(shards);
    const Workload w = ZipfWorkload(k, n, /*seed=*/31);

    ShardedEngineConfig engine_config;
    engine_config.num_sites = k;
    engine_config.num_shards = shards;
    engine_config.shard.batch_size = 16;  // many handoffs -> live traffic
    engine_config.shard.item_queue_batches = 4;
    engine_config.shard.message_queue_capacity = 256;
    ShardedEngine eng(engine_config);
    const ShardedWsworEndpoints endpoints = AttachShardedWswor(config, eng);
    const std::unique_ptr<LiveShardPublishers> publishers =
        query::EnableWsworLiveQueries(eng, endpoints);
    QueryService service(publishers->views());

    std::atomic<bool> stop{false};
    std::vector<std::unique_ptr<RefereeState>> states;
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      states.push_back(std::make_unique<RefereeState>(shards));
      RefereeState* st = states.back().get();
      // do-while: a reader first scheduled after the run still makes its
      // referee pass, so reads > 0 below cannot fail on thread start-up.
      readers.emplace_back([&service, &stop, st, s = size_t{s}] {
        do {
          Referee(service.Query(), s, n, /*expect_clean=*/true, *st);
        } while (!stop.load(std::memory_order_acquire));
      });
    }

    eng.Run(w);  // pipelined; ends quiescent

    // One more referee pass per reader after full quiesce, then stop.
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    // Final answer must coincide with the stop-the-world root merge.
    const QueryResult final_result = service.Query();
    EXPECT_TRUE(final_result.complete);
    EXPECT_FALSE(final_result.any_stale);
    const std::vector<KeyedItem> live = final_result.merged.TopEntries();
    const std::vector<KeyedItem> direct = eng.MergedSample().TopEntries();
    ASSERT_EQ(live.size(), direct.size());
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(live[i].item.id, direct[i].item.id) << " position " << i;
      EXPECT_EQ(live[i].key, direct[i].key) << " position " << i;
    }
    for (int j = 0; j < shards; ++j) {
      EXPECT_EQ(final_result.shards[static_cast<size_t>(j)].state_version,
                endpoints.coordinators[static_cast<size_t>(j)]->StateVersion())
          << " shard " << j;
    }

    for (int r = 0; r < kReaders; ++r) {
      EXPECT_EQ(states[static_cast<size_t>(r)]->errors, "")
          << " S=" << shards << " reader " << r;
      EXPECT_GT(states[static_cast<size_t>(r)]->reads, 0u)
          << " S=" << shards << " reader " << r;
    }
    eng.Shutdown();
  }
}

// ---------------------------------------------------------------------
// Distribution exactness of live-served samples at S ∈ {1, 2, 4}.

TEST(LiveQueryDistributionTest, ServedSampleChiSquareAcrossShardCounts) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const int k = 4, s = 2, trials = 2000;
  for (int shards : {1, 2, 4}) {
    const auto result = testing::SworSetGoodnessOfFit(
        weights, s, trials, [&](int t) {
          WsworConfig config;
          config.num_sites = k;
          config.sample_size = s;
          config.seed = 220000 * static_cast<uint64_t>(shards) +
                        static_cast<uint64_t>(t);
          ShardedEngineConfig engine_config;
          engine_config.num_sites = k;
          engine_config.num_shards = shards;
          engine_config.shard.batch_size = 2;
          engine_config.shard.item_queue_batches = 2;
          ShardedEngine eng(engine_config);
          const ShardedWsworEndpoints endpoints =
              AttachShardedWswor(config, eng);
          const std::unique_ptr<LiveShardPublishers> publishers =
              query::EnableWsworLiveQueries(eng, endpoints);
          QueryService service(publishers->views());
          eng.Run(SmallWeighted(weights, k,
                                /*seed=*/411 + static_cast<uint64_t>(t)));
          const std::vector<uint64_t> ids = Ids(service.Sample());
          eng.Shutdown();
          return ids;
        });
    EXPECT_GT(result.p_value, 1e-3)
        << "S=" << shards << " chi2=" << result.statistic;
  }
}

TEST(LiveQueryDistributionTest, MidStreamSnapshotIsExactSworOfPrefix) {
  // Query a LIVE snapshot mid-stream (step-synchronous, so the prefix is
  // pinned) and chi-square it against the exact SWOR distribution over
  // that prefix: a served snapshot is a real sample, not merely a
  // well-formed one.
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 2.0,
                                       1.0, 5.0, 1.0, 3.0, 2.0};
  const int k = 4, s = 2, shards = 2, trials = 1500;
  const uint64_t prefix = 6;
  const Workload w = SmallWeighted(weights, k, /*seed=*/77);
  const std::vector<double> prefix_weights(weights.begin(),
                                           weights.begin() + prefix);
  const auto result = testing::SworSetGoodnessOfFit(
      prefix_weights, s, trials, [&](int t) {
        WsworConfig config;
        config.num_sites = k;
        config.sample_size = s;
        config.seed = 660000 + static_cast<uint64_t>(t);
        ShardedEngineConfig engine_config;
        engine_config.num_sites = k;
        engine_config.num_shards = shards;
        ShardedEngine eng(engine_config);
        const ShardedWsworEndpoints endpoints =
            AttachShardedWswor(config, eng);
        const std::unique_ptr<LiveShardPublishers> publishers =
            query::EnableWsworLiveQueries(eng, endpoints);
        QueryService service(publishers->views());
        std::vector<uint64_t> ids;
        eng.Run(w, [&](uint64_t step) {
          if (step == prefix) ids = Ids(service.Sample());
        });
        eng.Shutdown();
        return ids;
      });
  EXPECT_GT(result.p_value, 1e-3) << "chi2=" << result.statistic;
}

// ---------------------------------------------------------------------
// Engine publication vs the step-synchronous simulator reference.

TEST(LiveQueryEquivalenceTest, EngineStepSyncMatchesSimReference) {
  const int k = 4, shards = 2;
  const WsworConfig config{.num_sites = k, .sample_size = 8, .seed = 131};
  const Workload w = ZipfWorkload(k, 1500, /*seed=*/47);

  // Reference transcript: simulator backend, per-step publication.
  sim::ShardedRuntime runtime(k, shards);
  const ShardedWsworEndpoints sim_endpoints =
      AttachShardedWswor(config, runtime);
  LiveShardPublishers sim_publishers(shards);
  query::PublishWsworSnapshots(runtime, sim_endpoints, sim_publishers);
  QueryService sim_service(sim_publishers.views());
  std::vector<QueryResult> reference;
  reference.reserve(w.size());
  runtime.Run(w, [&](uint64_t) {
    query::PublishWsworSnapshots(runtime, sim_endpoints, sim_publishers);
    reference.push_back(sim_service.Query());
  });

  // Engine transcript: coordinator-thread publication, step-synchronous.
  ShardedEngineConfig engine_config;
  engine_config.num_sites = k;
  engine_config.num_shards = shards;
  ShardedEngine eng(engine_config);
  const ShardedWsworEndpoints eng_endpoints = AttachShardedWswor(config, eng);
  const std::unique_ptr<LiveShardPublishers> eng_publishers =
      query::EnableWsworLiveQueries(eng, eng_endpoints);
  QueryService eng_service(eng_publishers->views());
  uint64_t mismatches = 0;
  eng.Run(w, [&](uint64_t step) {
    const QueryResult live = eng_service.Query();
    const QueryResult& ref = reference[step - 1];
    ASSERT_TRUE(live.complete);
    ASSERT_TRUE(ref.complete);
    bool equal = live.any_stale == ref.any_stale;
    for (int j = 0; j < shards && equal; ++j) {
      const ShardSnapshot& a = live.shards[static_cast<size_t>(j)];
      const ShardSnapshot& b = ref.shards[static_cast<size_t>(j)];
      equal = a.state_version == b.state_version && a.steps == b.steps &&
              a.threshold == b.threshold &&
              a.session_epoch == b.session_epoch &&
              a.messages.site_to_coord == b.messages.site_to_coord &&
              a.messages.coord_to_site == b.messages.coord_to_site &&
              a.messages.words == b.messages.words;
    }
    const std::vector<KeyedItem> la = live.merged.TopEntries();
    const std::vector<KeyedItem> lb = ref.merged.TopEntries();
    equal = equal && la.size() == lb.size();
    for (size_t i = 0; equal && i < la.size(); ++i) {
      equal = la[i].item.id == lb[i].item.id && la[i].key == lb[i].key;
    }
    if (!equal) {
      ++mismatches;
      ASSERT_LT(mismatches, 5u) << " first divergence at step " << step;
    }
  });
  EXPECT_EQ(mismatches, 0u);
  eng.Shutdown();
}

// Time-travel bit-identity: after a full engine run with a ring deep
// enough to retain every publish, ReadAsOf at each step-boundary state
// version must reproduce the simulator reference's snapshot for that
// step bit for bit — the engine publishes once per coordinator drain
// pass, and a step-synchronous step sends at most one message per shard,
// so its publication history contains the reference's per-step history
// as a subsequence, and the as-of read finds exactly the right element
// of it.
TEST(LiveQueryEquivalenceTest, RingAsOfMatchesSimReferenceAtStepBoundaries) {
  const int k = 4, shards = 2;
  const WsworConfig config{.num_sites = k, .sample_size = 8, .seed = 131};
  const Workload w = ZipfWorkload(k, 800, /*seed=*/47);

  // Reference transcript: simulator backend, per-step publication.
  sim::ShardedRuntime runtime(k, shards);
  const ShardedWsworEndpoints sim_endpoints =
      AttachShardedWswor(config, runtime);
  LiveShardPublishers sim_publishers(shards);
  query::PublishWsworSnapshots(runtime, sim_endpoints, sim_publishers);
  QueryService sim_service(sim_publishers.views());
  std::vector<QueryResult> reference;
  reference.reserve(w.size());
  runtime.Run(w, [&](uint64_t) {
    query::PublishWsworSnapshots(runtime, sim_endpoints, sim_publishers);
    reference.push_back(sim_service.Query());
  });

  // Engine run, step-synchronous, with an evict-nothing ring.
  ShardedEngineConfig engine_config;
  engine_config.num_sites = k;
  engine_config.num_shards = shards;
  ShardedEngine eng(engine_config);
  const ShardedWsworEndpoints eng_endpoints = AttachShardedWswor(config, eng);
  const std::unique_ptr<LiveShardPublishers> eng_publishers =
      query::EnableWsworLiveQueries(eng, eng_endpoints,
                                    /*ring_depth=*/1 << 14);
  eng.Run(w, [](uint64_t) {});  // on_step forces step-synchronous mode

  for (int j = 0; j < shards; ++j) {
    ASSERT_LE(eng_publishers->shard(j).publish_count(), uint64_t{1} << 14)
        << " ring too shallow for this run; test premise broken";
  }
  for (size_t step = 0; step < reference.size(); ++step) {
    for (int j = 0; j < shards; ++j) {
      const ShardSnapshot& ref = reference[step].shards[static_cast<size_t>(j)];
      ShardSnapshot live;
      ASSERT_TRUE(
          eng_publishers->shard(j).ReadAsOf(ref.state_version, &live))
          << " step " << step + 1 << " shard " << j;
      EXPECT_EQ(live.state_version, ref.state_version)
          << " step " << step + 1 << " shard " << j;
      EXPECT_EQ(live.steps, ref.steps) << " step " << step + 1;
      EXPECT_EQ(live.threshold, ref.threshold) << " step " << step + 1;
      EXPECT_EQ(live.session_epoch, ref.session_epoch) << " step " << step + 1;
      EXPECT_EQ(live.messages.site_to_coord, ref.messages.site_to_coord)
          << " step " << step + 1;
      EXPECT_EQ(live.messages.coord_to_site, ref.messages.coord_to_site)
          << " step " << step + 1;
      EXPECT_EQ(live.messages.words, ref.messages.words) << " step "
                                                         << step + 1;
      const std::vector<KeyedItem> la = live.sample.TopEntries();
      const std::vector<KeyedItem> lb = ref.sample.TopEntries();
      ASSERT_EQ(la.size(), lb.size()) << " step " << step + 1 << " shard "
                                      << j;
      for (size_t i = 0; i < la.size(); ++i) {
        EXPECT_EQ(la[i].item.id, lb[i].item.id)
            << " step " << step + 1 << " shard " << j << " position " << i;
        EXPECT_EQ(la[i].key, lb[i].key)
            << " step " << step + 1 << " shard " << j << " position " << i;
      }
    }
  }
  eng.Shutdown();
}

// ---------------------------------------------------------------------
// Fault semantics: last clean epoch, flagged, never silently merged.

TEST(LiveQueryFaultsTest, GapWindowsServeLastCleanStateFlagged) {
  const WsworConfig config{.num_sites = 4, .sample_size = 8, .seed = 17};
  FaultConfig faults;
  faults.seed = 23;
  faults.drop_prob = 0.2;
  faults.delay_prob = 0.1;
  faults.max_delay = 3;
  const Workload w = ZipfWorkload(4, 1200, /*seed=*/53);

  FaultyWswor run(config, faults, Backend::kSim);
  SnapshotPublisher publisher;
  publisher.Publish(query::CaptureSessionSnapshot(run.coordinator_session()));
  QueryService service({&publisher});

  uint64_t stale_reads = 0, clean_reads = 0;
  ShardSnapshot last_clean;
  run.Run(w, [&](uint64_t step) {
    publisher.Publish(
        query::CaptureSessionSnapshot(run.coordinator_session()));
    const QueryResult result = service.Query();
    const ShardSnapshot& snap = result.shards[0];
    if (result.any_stale) {
      ++stale_reads;
      // Frozen at the last clean state: version and content pinned.
      EXPECT_EQ(snap.state_version, last_clean.state_version)
          << " step " << step;
      EXPECT_EQ(Ids(result.merged.TopEntries()),
                Ids(last_clean.sample.TopEntries()))
          << " step " << step;
      EXPECT_EQ(result.stale_shards, std::vector<int>{0});
    } else {
      ++clean_reads;
      last_clean = snap;
    }
  });
  // The schedule must actually have produced both regimes.
  EXPECT_GT(stale_reads, 0u);
  EXPECT_GT(clean_reads, 0u);

  // After the end-of-stream reconcile the network healed and every gap
  // resolved: the shard serves fresh, unflagged state again.
  publisher.Publish(query::CaptureSessionSnapshot(run.coordinator_session()));
  const QueryResult final_result = service.Query();
  EXPECT_FALSE(final_result.any_stale);
  EXPECT_TRUE(run.report().clean);
  EXPECT_EQ(Ids(final_result.merged.TopEntries()), run.SampleIds());
}

TEST(LiveQueryFaultsTest, ShardWithIrrecoverableLossStaysFlagged) {
  // Find a fault seed whose crash schedule wipes un-acked data on shard
  // 0 (a non-clean run); shard 1 stays clean. The merged query must
  // flag shard 0 and only shard 0 — degraded data is never silently
  // merged, even after reconcile.
  const int k = 4, s = 4;
  const Workload w = ZipfWorkload(k, 600, /*seed=*/71);
  FaultConfig crashy;
  // Crashes alone lose nothing on a zero-delay network (acks return
  // within the step, so the unacked buffer is empty between items);
  // in-flight delayed/dropped messages are what a crash wipes.
  crashy.crash_prob = 0.05;
  crashy.crash_down_items = 4;
  crashy.drop_prob = 0.25;
  crashy.delay_prob = 0.3;
  crashy.max_delay = 6;
  bool found = false;
  for (uint64_t fault_seed = 1; fault_seed <= 40 && !found; ++fault_seed) {
    crashy.seed = fault_seed;
    WsworConfig config;
    config.num_sites = k;
    config.sample_size = s;
    config.seed = 7000 + fault_seed;
    ShardedFaultyWswor run(config, {crashy, FaultConfig{}}, Backend::kSim);
    run.Run(w);
    if (run.shard(0).report().clean) continue;
    found = true;

    LiveShardPublishers publishers(2);
    for (int j = 0; j < 2; ++j) {
      publishers.shard(j).Publish(query::CaptureSessionSnapshot(
          run.shard(j).coordinator_session(),
          /*force_stale=*/!run.shard(j).report().clean));
    }
    QueryService service(publishers.views());
    const QueryResult result = service.Query();
    EXPECT_TRUE(result.complete);
    EXPECT_TRUE(result.any_stale);
    EXPECT_EQ(result.stale_shards, std::vector<int>{0});
    // The served answer is still the exact root merge over what was
    // delivered — the flag, not a silent content swap, carries the
    // degradation.
    EXPECT_EQ(Ids(result.merged.TopEntries()), run.MergedSampleIds());
  }
  EXPECT_TRUE(found) << " no fault seed in range produced data loss";
}

// ---------------------------------------------------------------------
// L1 serving through the same path.

TEST(LiveQueryL1Test, L1EstimateMatchesShardedEstimateExactly) {
  const int k = 4, shards = 2;
  const ShardTopology topo(k, shards);
  L1TrackerConfig config;
  config.num_sites = k;
  config.eps = 0.15;
  config.delta = 0.1;
  config.seed = 29;

  const Workload w = WorkloadBuilder()
                         .num_sites(k)
                         .num_items(600)
                         .seed(37)
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

  LiveShardPublishers publishers(shards);
  for (int j = 0; j < shards; ++j) {
    query::ShardSnapshot snap = query::CaptureL1Snapshot(
        shard_configs[static_cast<size_t>(j)], *coords[static_cast<size_t>(j)]);
    snap.steps = runtime.shard_runtime(j).steps();
    publishers.shard(j).Publish(std::move(snap));
  }
  QueryService service(publishers.views());

  std::vector<const WsworCoordinator*> coordinator_ptrs;
  for (const auto& c : coords) coordinator_ptrs.push_back(c.get());
  const double direct = ShardedL1Estimate(config, coordinator_ptrs);
  EXPECT_DOUBLE_EQ(service.L1Estimate(), direct);
  const double truth = w.TotalWeight();
  EXPECT_LT(std::abs(service.L1Estimate() - truth) / truth, config.eps);
  // The merged scalar summary agrees with the summed per-shard field.
  const QueryResult result = service.Query();
  EXPECT_EQ(result.merged.kind, SampleKind::kScalarSum);
  EXPECT_DOUBLE_EQ(result.merged.scalar, result.l1_estimate);
}

}  // namespace
}  // namespace dwrs
