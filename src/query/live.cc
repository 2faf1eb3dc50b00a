#include "query/live.h"

#include "query/capture.h"
#include "util/check.h"

namespace dwrs::query {

LiveShardPublishers::LiveShardPublishers(int num_shards, int ring_depth) {
  DWRS_CHECK_GT(num_shards, 0);
  DWRS_CHECK_GT(ring_depth, 0);
  publishers_.reserve(static_cast<size_t>(num_shards));
  for (int j = 0; j < num_shards; ++j) {
    publishers_.push_back(std::make_unique<SnapshotPublisher>(ring_depth));
    publishers_.back()->set_trace_shard(j);
  }
}

size_t LiveShardPublishers::Index(int j) const {
  DWRS_CHECK(j >= 0 && j < num_shards());
  return static_cast<size_t>(j);
}

std::vector<const SnapshotPublisher*> LiveShardPublishers::views() const {
  std::vector<const SnapshotPublisher*> out;
  out.reserve(publishers_.size());
  for (const auto& publisher : publishers_) out.push_back(publisher.get());
  return out;
}

namespace {

// One shard's capture+publish, shared by the engine hook (coordinator
// thread) and the simulator reference (driving thread) so both paths
// publish bit-identical snapshots at the same coordinator state.
void CaptureAndPublish(const WsworCoordinator& coordinator, uint64_t steps,
                       const sim::MessageStats& stats,
                       SnapshotPublisher& publisher) {
  ShardSnapshot snap = CaptureSnapshot(coordinator);
  snap.steps = steps;
  snap.messages = stats;
  publisher.Publish(std::move(snap));
}

}  // namespace

std::unique_ptr<LiveShardPublishers> EnableWsworLiveQueries(
    engine::ShardedEngine& eng, const ShardedWsworEndpoints& endpoints,
    int ring_depth) {
  DWRS_CHECK_EQ(endpoints.coordinators.size(),
                static_cast<size_t>(eng.num_shards()));
  auto publishers =
      std::make_unique<LiveShardPublishers>(eng.num_shards(), ring_depth);
  for (int j = 0; j < eng.num_shards(); ++j) {
    const WsworCoordinator* coordinator =
        endpoints.coordinators[static_cast<size_t>(j)].get();
    engine::Engine* shard_engine = &eng.shard_engine(j);
    SnapshotPublisher* publisher = &publishers->shard(j);
    eng.SetShardSnapshotHook(j, [coordinator, shard_engine, publisher] {
      CaptureAndPublish(*coordinator, shard_engine->step(),
                        shard_engine->stats().MessageSnapshot(), *publisher);
      shard_engine->stats_mutable().snapshot_publishes.fetch_add(
          1, std::memory_order_relaxed);
    });
    // Initial state, published from this (pre-ingestion) thread so a
    // reader that races the first message still finds a snapshot.
    CaptureAndPublish(*coordinator, 0, sim::MessageStats{}, *publisher);
    shard_engine->stats_mutable().snapshot_publishes.fetch_add(
        1, std::memory_order_relaxed);
  }
  return publishers;
}

void PublishWsworSnapshots(const sim::ShardedRuntime& runtime,
                           const ShardedWsworEndpoints& endpoints,
                           LiveShardPublishers& publishers) {
  DWRS_CHECK_EQ(endpoints.coordinators.size(),
                static_cast<size_t>(publishers.num_shards()));
  for (int j = 0; j < publishers.num_shards(); ++j) {
    const WsworCoordinator& coordinator =
        *endpoints.coordinators[static_cast<size_t>(j)];
    // Publish only when the shard's state advanced since the last
    // publish — mirroring the engine, whose hook fires once per
    // coordinator drain pass, and a step-synchronous step is at most one
    // pass. The latest snapshots of the two backends (steps and traffic
    // stamps included) then coincide at every step boundary; without the
    // skip, an event that produces no message for a shard would advance
    // the reference's `steps` stamp but not the engine's.
    SnapshotPublisher& publisher = publishers.shard(j);
    if (publisher.publish_count() > 0 &&
        publisher.published_state_version() == coordinator.StateVersion()) {
      continue;
    }
    const sim::Runtime& shard = runtime.shard_runtime(j);
    CaptureAndPublish(coordinator, shard.steps(), shard.stats(), publisher);
  }
}

}  // namespace dwrs::query
