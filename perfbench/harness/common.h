// Pieces the three workloads share: input generation, the pass scheme,
// the two closed-loop reader threads, and the metric names every run
// must report.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/stats.h"
#include "measure.h"
#include "query/query_service.h"
#include "query/snapshot.h"
#include "sim/node.h"
#include "stream/workload.h"
#include "trace.h"

namespace perfbench {

// Sites and input shape (bench::ZipfWorkload: Zipf 1.1 weights over 2^20
// ranks, each event at a uniformly random site).
inline constexpr int kSites = 8;
dwrs::Workload ZipfInput(uint64_t num_items, uint64_t seed);

// The generated events of a pass-fed workload and the pass their ids are
// shifted to. Pass p feeds the events with every id shifted by
// p * size(), so each fed item is distinct and its pass and weight are
// recoverable from its id (checks.h). SetPass rewrites the ids in place,
// between passes and outside any timed region.
class PassInput {
 public:
  PassInput(uint64_t num_items, uint64_t seed)
      : workload_(ZipfInput(num_items, seed)) {}
  const dwrs::Workload& workload() const { return workload_; }
  const std::vector<dwrs::WorkloadEvent>& events() const {
    return workload_.events();
  }
  uint64_t size() const { return workload_.size(); }
  uint64_t pass() const { return pass_; }
  void SetPass(uint64_t pass);

 private:
  dwrs::Workload workload_;
  uint64_t pass_ = 0;
};

// One fed pass, timed from outside: wall and process CPU over the whole
// pass, the feeder thread's own CPU, and (traced) the Push loop and the
// pass-end Flush separately.
struct PassTiming {
  uint64_t items = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double feeder_cpu_s = 0.0;
  double push_s = 0.0;
  double flush_s = 0.0;
};

// Feeds one pass and returns quiesced. Untraced it calls the engine's
// Run; traced it makes the same Push calls and Flush that Run makes, with
// a span around each part. EngineT is engine::Engine or ShardedEngine.
template <typename EngineT>
PassTiming FeedPass(EngineT& eng, const dwrs::Workload& workload,
                    Tracer* tracer) {
  PassTiming t;
  t.items = workload.size();
  const clockid_t feeder = CurrentThreadCpuClock();
  const double feeder0 = ThreadCpuSeconds(feeder);
  const double cpu0 = ProcessCpuSeconds();
  const double wall0 = WallSeconds();
  if (tracer == nullptr) {
    eng.Run(workload);
  } else {
    {
      ScopedSpan span(tracer, Role::kFeeder, Span::kFeederPush,
                      workload.size());
      for (const dwrs::WorkloadEvent& e : workload.events()) {
        eng.Push(e.site, e.item);
      }
    }
    const double flush0 = WallSeconds();
    t.push_s = flush0 - wall0;
    {
      ScopedSpan span(tracer, Role::kFeeder, Span::kFeederFlush);
      eng.Flush();
    }
    t.flush_s = WallSeconds() - flush0;
  }
  t.wall_s = WallSeconds() - wall0;
  t.cpu_s = ProcessCpuSeconds() - cpu0;
  t.feeder_cpu_s = ThreadCpuSeconds(feeder) - feeder0;
  return t;
}

// The timed passes summed. Rates are ratios of these sums — time
// averages over the whole timed region — rather than medians of per-pass
// rates: this machine's clock speed moves in phases of a fraction of a
// second, and a median flips between phases where a sum averages them.
PassTiming Total(const std::vector<PassTiming>& passes);

// items_per_s and cpu_ns_per_item of the timed passes.
void AddThroughputMetrics(const std::vector<PassTiming>& passes,
                          RunResult* out);

// EngineStats counters (summed over shards) and, traced, the thread CPU
// clocks and endpoint span totals, read at a quiesce point; the engine
// layer metrics are differences of two readings around the timed passes.
struct EngineCounters {
  uint64_t items = 0, batches = 0, ingest_stalls = 0, parks = 0, steals = 0;
  uint64_t upstream_stalls = 0, messages = 0, keys_decided = 0, skips = 0;
  uint64_t publishes = 0;
  double worker_cpu_s = 0.0, coordinator_cpu_s = 0.0;
  SpanTotal site_items, site_messages, coord_messages;
};
EngineCounters ReadEngineCounters(
    const std::vector<const dwrs::engine::EngineStats*>& shards,
    const Tracer* tracer);

// Adds the engine.*, core.* and coordinator-side query.* metrics of a
// traced measurement: `before`/`after` bracket the timed passes,
// `workers` is the pool size, `warmup_msgs` the traffic through the
// warm-up pass.
void AddEngineLayerMetrics(const EngineCounters& before,
                           const EngineCounters& after,
                           const std::vector<PassTiming>& passes, int workers,
                           uint64_t warmup_msgs, const Tracer& tracer,
                           RunResult* out);

// Two closed-loop readers against one QueryService: an estimator reader
// calling SubsetSum (timed per call) and a poll reader calling
// QueryShared (counted). Their threads start at the first Resume() (so a
// workload may fork before it) and query only between Resume() and
// Pause(), so the numbers cover exactly the main thread's read windows
// and the readers never run beside work they are not meant to share the
// cores with. With a tracer the estimator call is split into its
// EstimatorSample and EstimateSubsetSum spans.
class Readers {
 public:
  explicit Readers(Tracer* tracer);
  ~Readers();
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  // Opens a read window against `service`, which must outlive it.
  void Resume(const dwrs::query::QueryService* service);
  // Closes the window once both readers have finished their current call.
  void Pause();

  // Accumulated over all windows; valid while paused.
  uint64_t polls() const { return polls_; }
  double window_seconds() const { return window_seconds_; }
  std::vector<double> estimate_us() const;
  // Both readers' CPU time over the windows, as a share of their wall.
  double cpu_frac() const;
  CheckTally checks() const;

 private:
  enum State { kPaused, kRunning, kStopped };
  void Loop(bool estimator);
  // Blocks until running (true, with the window's index) or stopped.
  bool AwaitRunning(uint64_t* window);

  // The readers run on two different CPUs in each window, moving one CPU
  // on per window through every CPU the process may use. Left to the
  // scheduler, both readers woken by one notify often shared a CPU for the
  // first milliseconds of a window; pinned for the whole run, they took on
  // the speed of whichever vCPUs they were given. Either moved the quiesced
  // read metrics by 10-20% between runs.
  std::vector<int> cpus_;
  uint64_t windows_ = 0;  // guarded by mutex_
  // Latency samples are stored in memory touched at construction, so the
  // benchmark's own bookkeeping does not show in peak_rss_mb; calls past
  // the capacity are still made and checked, just not timed.
  static constexpr size_t kMaxSamples = size_t{1} << 22;

  Tracer* const tracer_;
  const dwrs::query::QueryService* service_ = nullptr;
  std::mutex mutex_;
  std::condition_variable changed_;
  std::atomic<State> state_{kPaused};  // written under mutex_
  int parked_ = 0;                     // guarded by mutex_
  double window_start_ = 0.0;
  double window_seconds_ = 0.0;
  // Written by one reader each; read by the main thread while paused
  // (Pause's handshake orders the writes before the reads).
  uint64_t polls_ = 0;
  std::vector<float> samples_us_;
  size_t num_samples_ = 0;
  double cpu_seconds_[2] = {0.0, 0.0};
  CheckTally checks_;
  CheckTally poll_checks_;
  std::thread estimator_;
  std::thread poller_;
};

// The read path on a quiesced stack, the uncontended control for the
// live_query workload: each Burst publishes the coordinator's current
// state into a one-shard QueryService and runs the readers against it.
class QuiescedReads {
 public:
  QuiescedReads() : service_({&publisher_}) {}

  // Call only at a quiesce point of the stack that owns `coordinator`.
  void Burst(const dwrs::sim::CoordinatorNode& coordinator, double seconds,
             Readers* readers);
  dwrs::query::QueryServiceStats stats() const { return service_.stats(); }

 private:
  dwrs::query::SnapshotPublisher publisher_;
  dwrs::query::QueryService service_;
};

// setup_s: the median of the stack builds (all printed).
void AddSetupMetric(const std::vector<double>& setup_s, RunResult* out);

// Adds the read-path end-to-end metrics from the readers' windows.
void AddReadMetrics(const Readers& readers, RunResult* result);

// Adds the reader-side query.* / estimators.* metrics of a traced
// measurement: cache counters over the reads, the split estimator spans,
// and the readers' CPU share.
void AddReaderLayerMetrics(const dwrs::query::QueryServiceStats& reads,
                           double reader_cpu_frac, const Tracer& tracer,
                           RunResult* out);

// Stacks are built this many times per run; setup_s is their median.
inline constexpr int kSetups = 7;

// Quiesced read burst after each timed pass (ingest, durable), as a share
// of the pass's wall time.
inline constexpr double kReadShare = 0.1;

// A traced run: the workload measured untraced, then traced, each for
// half of the run; the traced result gains obs.trace_overhead_frac.
// `measure(options, traced)` is one measurement of the workload.
template <typename MeasureFn>
RunResult TracedRun(const RunOptions& options, MeasureFn measure) {
  RunOptions half = options;
  half.seconds = options.seconds / 2;
  const RunResult plain = measure(half, false);
  RunResult traced = measure(half, true);
  traced.Add("obs.trace_overhead_frac",
             1.0 - traced.Get("items_per_s") / plain.Get("items_per_s"),
             "ratio");
  traced.checks.Absorb(plain.checks);
  return traced;
}

// The workloads (ingest.cc, live_query.cc, durable.cc). Untraced runs
// return the end-to-end metrics; traced runs (TracedRun) also return the
// per-layer metrics their stack exposes.
RunResult RunIngest(const RunOptions& options);
RunResult RunLiveQuery(const RunOptions& options);
RunResult RunDurable(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
