#include "common.h"

#include <chrono>
#include <cmath>
#include <memory>

#include "checks.h"
#include "estimators/swor_estimators.h"
#include "query/capture.h"
#include "query/snapshot.h"
#include "stream/generators.h"
#include "stream/partitioners.h"

namespace perfbench {

namespace {

// The estimator predicate: a fixed quarter of the id space.
bool EstimatorPredicate(const dwrs::Item& item) { return item.id % 4 == 0; }

}  // namespace

dwrs::Workload ZipfInput(uint64_t num_items, uint64_t seed) {
  return dwrs::WorkloadBuilder()
      .num_sites(kSites)
      .num_items(num_items)
      .seed(seed)
      .weights(std::make_unique<dwrs::ZipfWeights>(uint64_t{1} << 20, 1.1))
      .partitioner(std::make_unique<dwrs::RandomPartitioner>())
      .Build();
}

void PassInput::SetPass(uint64_t pass) {
  // Workload offers read-only access to its events; the object itself is
  // not const, so writing through the cast is well defined, and it saves
  // an input-sized copy per pass. Unsigned wrap-around makes a move back
  // an addition too.
  const uint64_t delta = (pass - pass_) * workload_.size();
  auto& events =
      const_cast<std::vector<dwrs::WorkloadEvent>&>(workload_.events());
  for (dwrs::WorkloadEvent& e : events) e.item.id += delta;
  pass_ = pass;
}

PassTiming Total(const std::vector<PassTiming>& passes) {
  PassTiming sum;
  for (const PassTiming& p : passes) {
    sum.items += p.items;
    sum.wall_s += p.wall_s;
    sum.cpu_s += p.cpu_s;
    sum.feeder_cpu_s += p.feeder_cpu_s;
    sum.push_s += p.push_s;
    sum.flush_s += p.flush_s;
  }
  return sum;
}

void AddThroughputMetrics(const std::vector<PassTiming>& passes,
                          RunResult* out) {
  const PassTiming total = Total(passes);
  const double items = static_cast<double>(total.items);
  out->Add("items_per_s", items / total.wall_s, "1/s");
  out->Add("cpu_ns_per_item", total.cpu_s * 1e9 / items, "ns");
  out->Fact("timed_items", std::to_string(total.items));
  out->Fact("timed_seconds", std::to_string(total.wall_s));
}

EngineCounters ReadEngineCounters(
    const std::vector<const dwrs::engine::EngineStats*>& shards,
    const Tracer* tracer) {
  EngineCounters c;
  for (const dwrs::engine::EngineStats* s : shards) {
    c.items += s->items_ingested.load();
    c.batches += s->batches_ingested.load();
    c.ingest_stalls += s->ingest_stalls.load();
    c.parks += s->worker_parks.load();
    c.steals += s->steals.load();
    c.upstream_stalls += s->upstream_stalls.load();
    c.messages += s->total_messages();
    c.keys_decided += s->keys_decided.load();
    c.skips += s->skips_taken.load();
    c.publishes += s->snapshot_publishes.load();
  }
  if (tracer != nullptr) {
    c.worker_cpu_s = tracer->CpuSeconds(Role::kWorker);
    c.coordinator_cpu_s = tracer->CpuSeconds(Role::kCoordinator);
    c.site_items = tracer->Total(Role::kWorker, Span::kSiteOnItems);
    c.site_messages = tracer->Total(Role::kWorker, Span::kSiteOnMessage);
    c.coord_messages = tracer->Total(Role::kCoordinator, Span::kCoordOnMessage);
  }
  return c;
}

void AddEngineLayerMetrics(const EngineCounters& before,
                           const EngineCounters& after,
                           const std::vector<PassTiming>& passes, int workers,
                           uint64_t warmup_msgs, const Tracer& tracer,
                           RunResult* out) {
  const PassTiming total = Total(passes);
  const double wall = total.wall_s;
  const double feeder_cpu = total.feeder_cpu_s;
  std::vector<double> flush_us;
  for (const PassTiming& p : passes) flush_us.push_back(p.flush_s * 1e6);
  const auto delta = [&](uint64_t EngineCounters::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  const double items = delta(&EngineCounters::items);
  const double batches = delta(&EngineCounters::batches);
  const double worker_cpu = after.worker_cpu_s - before.worker_cpu_s;
  // Endpoint time on the workers; sends nest inside OnItems.
  const double endpoint_s =
      static_cast<double>(after.site_items.ns - before.site_items.ns +
                          after.site_messages.ns - before.site_messages.ns) *
      1e-9;
  const std::vector<double> coord_us = tracer.DurationsUs(Span::kCoordOnMessage);

  out->checks.Expect(tracer.CpuWithinWall() && feeder_cpu <= wall,
                     "no engine thread's CPU time exceeds its wall time");
  out->Add("engine.feeder_cpu_frac", feeder_cpu / wall, "ratio");
  out->Add("engine.feeder_wait_s", wall - feeder_cpu, "s");
  out->Add("engine.push_s", total.push_s, "s");
  out->Add("engine.flush_us", Median(flush_us), "us");
  out->Add("engine.ingest_stalls_per_mitem",
           delta(&EngineCounters::ingest_stalls) * 1e6 / items, "1/Mitem");
  out->Add("engine.worker_cpu_frac", worker_cpu / (workers * wall), "ratio");
  out->Add("engine.worker_dispatch_ns_per_batch",
           (worker_cpu - endpoint_s) * 1e9 / batches, "ns");
  out->Add("engine.worker_parks_per_kbatch",
           delta(&EngineCounters::parks) * 1e3 / batches, "1/kbatch");
  out->Add("engine.steals_per_kbatch",
           delta(&EngineCounters::steals) * 1e3 / batches, "1/kbatch");
  out->Add("engine.upstream_send_us_p99",
           Quantile(tracer.DurationsUs(Span::kUpstreamSend), 0.99), "us");
  out->Add("engine.upstream_stalls",
           static_cast<double>(after.upstream_stalls), "count");
  out->Add("engine.msgs_per_kitem",
           delta(&EngineCounters::messages) * 1e3 / items, "msgs/kitem");
  out->Add("engine.warmup_msgs", static_cast<double>(warmup_msgs), "count");
  out->Add("core.site_ns_per_item",
           static_cast<double>(after.site_items.ns - before.site_items.ns) /
               static_cast<double>(after.site_items.items -
                                   before.site_items.items),
           "ns");
  out->Add("core.skip_rate",
           delta(&EngineCounters::skips) / delta(&EngineCounters::keys_decided),
           "ratio");
  out->Add("core.coord_msg_us_p50", Quantile(coord_us, 0.5), "us");
  out->Add("core.coord_msg_us_p99", Quantile(coord_us, 0.99), "us");
  // Coordinator-thread CPU outside OnMessage, per message, over the
  // stack's life: the snapshot publish where live queries are on, and the
  // channel hand-off everywhere.
  out->Add("query.publish_us_per_msg",
           (after.coordinator_cpu_s -
            static_cast<double>(after.coord_messages.ns) * 1e-9) *
               1e6 / static_cast<double>(after.coord_messages.count),
           "us");
  out->Add("query.publishes_per_kitem",
           delta(&EngineCounters::publishes) * 1e3 / items, "1/kitem");
}

Readers::Readers(Tracer* tracer)
    : tracer_(tracer), samples_us_(kMaxSamples, 0.0f) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
  }
}

Readers::~Readers() {
  if (!estimator_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_.store(kStopped);
  }
  changed_.notify_all();
  estimator_.join();
  poller_.join();
}

void Readers::Resume(const dwrs::query::QueryService* service) {
  if (!estimator_.joinable()) {
    estimator_ = std::thread([this] { Loop(true); });
    poller_ = std::thread([this] { Loop(false); });
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    service_ = service;
    ++windows_;
    state_.store(kRunning);
  }
  window_start_ = WallSeconds();
  changed_.notify_all();
}

void Readers::Pause() {
  std::unique_lock<std::mutex> lock(mutex_);
  state_.store(kPaused);
  changed_.wait(lock, [this] { return parked_ == 2; });
  window_seconds_ += WallSeconds() - window_start_;
}

std::vector<double> Readers::estimate_us() const {
  return std::vector<double>(samples_us_.begin(),
                             samples_us_.begin() +
                                 static_cast<std::ptrdiff_t>(num_samples_));
}

CheckTally Readers::checks() const {
  CheckTally all = checks_;
  all.Absorb(poll_checks_);
  return all;
}

double Readers::cpu_frac() const {
  return (cpu_seconds_[0] + cpu_seconds_[1]) / (2.0 * window_seconds_);
}

bool Readers::AwaitRunning(uint64_t* window) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++parked_;
  changed_.notify_all();
  changed_.wait(lock, [this] { return state_.load() != kPaused; });
  --parked_;
  *window = windows_;
  return state_.load() == kRunning;
}

void Readers::Loop(bool estimator) {
  const clockid_t clock = CurrentThreadCpuClock();
  double& cpu = cpu_seconds_[estimator ? 0 : 1];
  uint64_t window = 0;
  while (AwaitRunning(&window)) {
    cpu_set_t mine;
    CPU_ZERO(&mine);
    CPU_SET(cpus_[(window + (estimator ? 0 : 1)) % cpus_.size()], &mine);
    sched_setaffinity(0, sizeof(mine), &mine);
    const double cpu0 = ThreadCpuSeconds(clock);
    while (state_.load(std::memory_order_acquire) == kRunning) {
      if (!estimator) {
        const std::shared_ptr<const dwrs::query::QueryResult> result =
            service_->QueryShared();
        poll_checks_.Expect(PollResultOk(*result),
                            "poll result complete and not stale");
        ++polls_;
        continue;
      }
      const int64_t start = WallNs();
      double estimate = 0.0;
      if (tracer_ != nullptr) {
        dwrs::ThresholdedSample sample;
        {
          ScopedSpan span(tracer_, Role::kReader, Span::kEstimatorSample);
          sample = service_->EstimatorSample();
        }
        ScopedSpan span(tracer_, Role::kReader, Span::kSubsetSum);
        estimate = dwrs::EstimateSubsetSum(sample, EstimatorPredicate);
      } else {
        estimate = service_->SubsetSum(EstimatorPredicate);
      }
      if (num_samples_ < samples_us_.size()) {
        samples_us_[num_samples_++] =
            static_cast<float>(WallNs() - start) / 1000.0f;
      }
      checks_.Expect(std::isfinite(estimate), "estimate is finite");
    }
    cpu += ThreadCpuSeconds(clock) - cpu0;
  }
}

void QuiescedReads::Burst(const dwrs::sim::CoordinatorNode& coordinator,
                          double seconds, Readers* readers) {
  publisher_.Publish(dwrs::query::CaptureSnapshot(coordinator));
  readers->Resume(&service_);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  readers->Pause();
}

void AddSetupMetric(const std::vector<double>& setup_s, RunResult* out) {
  std::string samples;
  for (double s : setup_s) {
    if (!samples.empty()) samples += ' ';
    samples += std::to_string(s);
  }
  out->Fact("setup_samples_s", samples);
  out->Add("setup_s", Median(setup_s), "s");
}

void AddReadMetrics(const Readers& readers, RunResult* result) {
  // Quantiles per block of consecutive calls, averaged over the blocks
  // (the highest and lowest tenth dropped): a block lies within one of
  // the machine's clock-speed phases, and the average weighs the phases by
  // calls instead of letting one quantile of the whole run flip between
  // them, while the trim keeps a few disturbed blocks from moving it. A
  // block keeps 20 samples beyond its p99.
  constexpr size_t kBlock = 2000;
  const std::vector<double> estimate_us = readers.estimate_us();
  std::vector<double> p50, p99;
  for (size_t i = 0; i + kBlock <= estimate_us.size(); i += kBlock) {
    const std::vector<double> block(estimate_us.begin() + i,
                                    estimate_us.begin() + i + kBlock);
    p50.push_back(Quantile(block, 0.5));
    p99.push_back(Quantile(block, 0.99));
  }
  result->Add("est_query_p50_us", TrimmedMean(p50, 0.1), "us");
  result->Add("est_query_p99_us", TrimmedMean(p99, 0.1), "us");
  result->Add("poll_queries_per_s",
              static_cast<double>(readers.polls()) / readers.window_seconds(),
              "1/s");
  result->Fact("estimator_calls_timed", std::to_string(estimate_us.size()));
}

void AddReaderLayerMetrics(const dwrs::query::QueryServiceStats& reads,
                           double reader_cpu_frac, const Tracer& tracer,
                           RunResult* out) {
  out->Add("query.cache_hit_rate",
           static_cast<double>(reads.cache_hits) /
               static_cast<double>(reads.cache_hits + reads.cache_misses),
           "ratio");
  out->Add("query.snapshot_copies_avoided",
           static_cast<double>(reads.snapshot_copies_avoided), "count");
  out->Add("query.estimator_sample_us",
           Median(tracer.DurationsUs(Span::kEstimatorSample)), "us");
  out->Add("estimators.subset_sum_us",
           Median(tracer.DurationsUs(Span::kSubsetSum)), "us");
  out->Add("query.reader_cpu_frac", reader_cpu_frac, "ratio");
  out->checks.Expect(tracer.CpuWithinWall() && reader_cpu_frac <= 1.001,
                     "no reader thread's CPU time exceeds its wall time");
}

}  // namespace perfbench
