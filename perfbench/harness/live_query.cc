// Workload `live_query`: reads beside writes. engine::ShardedEngine with
// S = 2 shards over k = 8 sites, one pool worker per shard, s = 64, live
// queries enabled (query::EnableWsworLiveQueries) behind a QueryService,
// fed like `ingest`. Two closed-loop readers run through every timed
// pass: the estimator reader (QueryService::SubsetSum: per-shard snapshot
// copies, root merge, Horvitz-Thompson; every call timed) and the poll
// reader (QueryShared; calls counted). The read path does its work here
// beside ingestion and shares the cores with it, so a change that speeds
// one side at the other's cost shows.

#include <memory>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/sharded_sampler.h"
#include "engine/sharded_engine.h"
#include "query/live.h"
#include "query/query_service.h"

namespace perfbench {

namespace {

constexpr uint64_t kPassItems = 4'000'000;
constexpr int kShards = 2;
constexpr int kSampleSize = 64;

dwrs::WsworConfig ProtocolConfig(uint64_t seed) {
  return {.num_sites = kSites, .sample_size = kSampleSize, .seed = seed};
}

// The backend AttachShardedWswor builds against: forwards to the sharded
// engine, handing it decorated endpoints and transports when traced.
class DecoratingBackend {
 public:
  DecoratingBackend(dwrs::engine::ShardedEngine* eng, Tracer* tracer)
      : eng_(eng), tracer_(tracer) {
    if (tracer_ == nullptr) return;
    for (int j = 0; j < eng_->num_shards(); ++j) {
      transports_.push_back(
          std::make_unique<TracedTransport>(&eng_->shard_transport(j), tracer));
    }
  }
  const dwrs::ShardTopology& topology() const { return eng_->topology(); }
  dwrs::sim::Transport& shard_transport(int shard) {
    if (tracer_ == nullptr) return eng_->shard_transport(shard);
    return *transports_[static_cast<size_t>(shard)];
  }
  void AttachSite(int site, dwrs::sim::SiteNode* node) {
    if (tracer_ != nullptr) {
      sites_.push_back(std::make_unique<TracedSite>(node, tracer_));
      node = sites_.back().get();
    }
    eng_->AttachSite(site, node);
  }
  void AttachShardCoordinator(int shard, dwrs::sim::CoordinatorNode* node) {
    if (tracer_ != nullptr) {
      coordinators_.push_back(std::make_unique<TracedCoordinator>(node, tracer_));
      node = coordinators_.back().get();
    }
    eng_->AttachShardCoordinator(shard, node);
  }

 private:
  dwrs::engine::ShardedEngine* const eng_;
  Tracer* const tracer_;
  std::vector<std::unique_ptr<TracedTransport>> transports_;
  std::vector<std::unique_ptr<TracedSite>> sites_;
  std::vector<std::unique_ptr<TracedCoordinator>> coordinators_;
};

class LiveStack {
 public:
  LiveStack(uint64_t seed, Tracer* tracer) {
    dwrs::engine::ShardedEngineConfig config;
    config.num_sites = kSites;
    config.num_shards = kShards;
    config.shard.num_workers = 1;
    engine_ = std::make_unique<dwrs::engine::ShardedEngine>(config);
    backend_ = std::make_unique<DecoratingBackend>(engine_.get(), tracer);
    endpoints_ = dwrs::AttachShardedWswor(ProtocolConfig(seed), *backend_);
    publishers_ = dwrs::query::EnableWsworLiveQueries(*engine_, endpoints_);
    service_ =
        std::make_unique<dwrs::query::QueryService>(publishers_->views());
  }
  // Workers join before any endpoint, decorator or publisher dies.
  ~LiveStack() { engine_->Shutdown(); }
  LiveStack(const LiveStack&) = delete;
  LiveStack& operator=(const LiveStack&) = delete;

  dwrs::engine::ShardedEngine& engine() { return *engine_; }
  const dwrs::query::QueryService& service() const { return *service_; }

  // Sums one EngineStats counter over the shards (quiesce points only).
  template <typename Field>
  uint64_t Sum(Field field) const {
    uint64_t total = 0;
    for (int j = 0; j < kShards; ++j) {
      total += (engine_->shard_engine(j).stats().*field).load();
    }
    return total;
  }
  uint64_t Messages() const {
    return engine_->AggregateMessageSnapshot().total_messages();
  }

 private:
  std::unique_ptr<dwrs::engine::ShardedEngine> engine_;
  std::unique_ptr<DecoratingBackend> backend_;
  dwrs::ShardedWsworEndpoints endpoints_;
  std::unique_ptr<dwrs::query::LiveShardPublishers> publishers_;
  std::unique_ptr<dwrs::query::QueryService> service_;
};

using dwrs::engine::EngineStats;

// Pass-end checks: the live merge equals the stop-the-world merge, the
// merged sample is a valid sample of what was fed, and every fed item
// was ingested.
void CheckPassEnd(LiveStack& stack, const PassInput& input,
                  uint64_t pass, Tracer* tracer, std::vector<double>* merge_us,
                  CheckTally* checks) {
  const double start = WallSeconds();
  dwrs::MergeableSample stopped;
  if (tracer != nullptr) {
    ScopedSpan span(tracer, Role::kFeeder, Span::kRootMerge);
    stopped = stack.engine().MergedSample();
  } else {
    stopped = stack.engine().MergedSample();
  }
  merge_us->push_back((WallSeconds() - start) * 1e6);
  checks->Record(CheckSameMerge(stack.service().Query().merged, stopped));
  checks->Record(
      CheckFedSample(stopped.TopEntries(), kSampleSize, input.events(), pass));
  checks->Record(CheckItemAccounting(
      stack.Sum(&EngineStats::items_ingested), (pass + 1) * input.size(),
      stack.Sum(&EngineStats::batches_dropped_on_shutdown)));
}

RunResult Measure(const RunOptions& options, PassInput& input,
                  bool traced) {
  RunResult out;
  input.SetPass(0);
  Tracer read_tracer;
  Readers readers(traced ? &read_tracer : nullptr);
  HeapGrowth heap;  // baseline: inputs and reader buffers in place

  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<LiveStack> stack;
  std::vector<double> setup_s;
  std::vector<double> merge_us;
  for (int r = 0; r < kSetups; ++r) {
    stack.reset();  // before its tracer
    if (traced) tracer = std::make_unique<Tracer>();
    const double start = WallSeconds();
    stack = std::make_unique<LiveStack>(options.seed, tracer.get());
    FeedPass(stack->engine(), input.workload(), tracer.get());
    setup_s.push_back(WallSeconds() - start);
    CheckPassEnd(*stack, input, 0, tracer.get(), &merge_us, &out.checks);
  }
  dwrs::engine::ShardedEngine& eng = stack->engine();
  std::vector<const EngineStats*> shard_stats;
  for (int j = 0; j < kShards; ++j) {
    shard_stats.push_back(&eng.shard_engine(j).stats());
  }
  const uint64_t warmup_msgs = stack->Messages();
  const EngineCounters before = ReadEngineCounters(shard_stats, tracer.get());
  const dwrs::query::QueryServiceStats service0 = stack->service().stats();

  std::vector<PassTiming> passes;
  double timed = 0.0;
  while (timed < options.seconds) {
    const uint64_t pass = input.pass() + 1;
    input.SetPass(pass);
    readers.Resume(&stack->service());
    passes.push_back(FeedPass(eng, input.workload(), tracer.get()));
    readers.Pause();
    timed += passes.back().wall_s;
    heap.Sample();
    CheckPassEnd(*stack, input, pass, tracer.get(), &merge_us, &out.checks);
  }
  const EngineCounters after = ReadEngineCounters(shard_stats, tracer.get());
  out.checks.Absorb(readers.checks());

  out.Fact("passes", std::to_string(passes.size()));
  out.Fact("pass_items", std::to_string(input.size()));
  out.Fact("threads",
           "feeder 1, pool workers " + std::to_string(kShards) +
               " (1 per shard), shard coordinators " +
               std::to_string(kShards) + ", readers 2");
  AddThroughputMetrics(passes, &out);
  AddReadMetrics(readers, &out);
  out.Add("peak_heap_mb", heap.peak_mb(), "MB");
  AddSetupMetric(setup_s, &out);
  if (!traced) return out;

  AddEngineLayerMetrics(before, after, passes, kShards, warmup_msgs, *tracer,
                        &out);
  dwrs::query::QueryServiceStats reads = stack->service().stats();
  reads.cache_hits -= service0.cache_hits;
  reads.cache_misses -= service0.cache_misses;
  reads.snapshot_copies_avoided -= service0.snapshot_copies_avoided;
  AddReaderLayerMetrics(reads, readers.cpu_frac(), read_tracer, &out);
  out.Add("sampling.root_merge_us", Median(merge_us), "us");
  dwrs::ShardedWswor reference(ProtocolConfig(options.seed), kShards);
  input.SetPass(0);
  reference.Run(input.workload());
  out.Add("engine.msg_inflation",
          static_cast<double>(warmup_msgs) /
              static_cast<double>(reference.stats().total_messages()),
          "ratio");
  const std::string spans = options.work_dir + "/spans-live_query.csv";
  out.checks.Expect(tracer->Write(spans), "span trace written");
  out.Fact("spans", spans);
  return out;
}

}  // namespace

RunResult RunLiveQuery(const RunOptions& options) {
  PassInput input(kPassItems, options.seed);
  const auto measure = [&input](const RunOptions& o, bool traced) {
    return Measure(o, input, traced);
  };
  return options.traced ? TracedRun(options, measure)
                        : measure(options, false);
}

}  // namespace perfbench
