// Workload `durable`: crash recovery and the durable stack.
// durability::DurableWswor on the engine backend, zero message faults,
// k = 8, s = 32, and default DurabilityOptions (group commit every 8
// steps) except the checkpoint cadence: every 1024 steps instead of 64.
// The state directory has to live inside the checkout, which is on a
// shared disk here, and at the default cadence the checkpoint fsyncs
// (0.2-2 ms each, moving with other tenants' disk traffic) took a third
// to two thirds of the run. For each setup a child process, forked
// while this process runs no other thread, streams a seeded prefix and
// dies by SIGKILL at a step that is not a commit step; the recovering
// constructor that reopens its directory is setup_s. The last recovered
// stack then streams the rest in one Run: 16384 warm-up steps (the killed
// prefix, the recovery's re-fed window and the rest), then timed
// 2048-item segments, each followed by a quiesced read burst. Sessions,
// WAL, checkpoints, recovery and the per-item quiesce do their work here
// and nowhere else; the stack is step-synchronous, so its message count
// repeats exactly. The run is fixed work (56 timed segments per requested
// second, about a second's worth on a 4-core Xeon VM) because
// DurableWswor::Run always streams to the end of its workload.

#include <signal.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "checks.h"
#include "common.h"
#include "durability/durable_shard.h"
#include "faults/harness.h"
#include "random/rng.h"

namespace perfbench {

namespace {

constexpr uint64_t kWarmupItems = 16384;
constexpr uint64_t kCheckpointSteps = 1024;
constexpr uint64_t kSegmentItems = 2048;
constexpr int kSampleSize = 32;
constexpr uint64_t kTmpfsMagic = 0x01021994;

dwrs::WsworConfig ProtocolConfig(uint64_t seed) {
  return {.num_sites = kSites, .sample_size = kSampleSize, .seed = seed};
}

dwrs::faults::FaultConfig ZeroFaults(uint64_t seed) {
  dwrs::faults::FaultConfig faults;
  faults.seed = seed ^ 0x5DEECE66Dull;
  return faults;
}

uint64_t StreamItems(double seconds) {
  const uint64_t segments =
      std::max<uint64_t>(8, static_cast<uint64_t>(std::llround(56 * seconds)));
  return kWarmupItems + segments * kSegmentItems;
}

// A seeded step of the warm-up that is not a commit step, half a
// checkpoint interval (plus up to 63) past a checkpoint, so every
// recovery replays a WAL tail of about the same length.
uint64_t KillStep(uint64_t seed, int setup) {
  dwrs::Rng rng(seed * 1000003 + static_cast<uint64_t>(setup));
  uint64_t step = 4 * kCheckpointSteps + kCheckpointSteps / 2 +
                  rng.NextU64() % 64;
  if (step % 8 == 0) ++step;
  return step;
}

// Forks a child that streams `stream` from a fresh `dir` and SIGKILLs
// itself after `kill_step`; true iff it died exactly that way.
bool KillAfterPrefix(const dwrs::WsworConfig& config,
                     const dwrs::faults::FaultConfig& faults,
                     const dwrs::durability::DurabilityOptions& durability,
                     const dwrs::Workload& stream, uint64_t kill_step) {
  std::filesystem::remove_all(durability.dir);
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    dwrs::durability::DurableWswor child(
        config, faults, dwrs::faults::Backend::kEngine, durability);
    child.Run(stream, [kill_step](uint64_t step) {
      if (step == kill_step) raise(SIGKILL);
    });
    _exit(3);  // the prefix ended without reaching the kill step
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return false;
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

std::string FileSystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  if (static_cast<uint64_t>(fs.f_type) == kTmpfsMagic) return "tmpfs";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(fs.f_type));
  return buf;
}

RunResult Measure(const RunOptions& options, const dwrs::Workload& stream,
                  bool traced) {
  RunResult out;
  const dwrs::WsworConfig config = ProtocolConfig(options.seed);
  const dwrs::faults::FaultConfig faults = ZeroFaults(options.seed);
  dwrs::durability::DurabilityOptions durability;
  durability.dir = options.work_dir + "/durable-state";
  durability.checkpoint_interval_steps = kCheckpointSteps;
  Tracer read_tracer;
  QuiescedReads reads;
  Readers readers(traced ? &read_tracer : nullptr);
  std::vector<float> step_us;  // traced: per-step interval, by step
  if (traced) step_us.assign(stream.size() + 1, 0.0f);
  HeapGrowth heap;  // baseline: inputs and reader buffers in place
  // The stack is step-synchronous: one of its threads works at a time and
  // hands off to the next with a futex wake. The feeder, and so the engine
  // threads it starts, share one CPU, which makes each hand-off a switch
  // on that CPU; across CPUs every hand-off waited for an idle vCPU to be
  // woken, and this VM's wake-ups moved durable throughput between 25k and
  // 57k items/s from run to run.
  const CpuPin pin;

  std::unique_ptr<dwrs::durability::DurableWswor> stack;
  std::vector<double> setup_s;
  uint64_t kill_step = 0;
  for (int r = 0; r < kSetups; ++r) {
    stack.reset();  // joins its threads: the next fork sees only this one
    kill_step = KillStep(options.seed, r);
    out.checks.Expect(
        KillAfterPrefix(config, faults, durability, stream, kill_step),
        "child died by SIGKILL at its kill step");
    const double start = WallSeconds();
    stack = std::make_unique<dwrs::durability::DurableWswor>(
        config, faults, dwrs::faults::Backend::kEngine, durability);
    setup_s.push_back(WallSeconds() - start);
    out.checks.Expect(stack->last_recovery().recovered,
                      "recovering constructor found the killed state");
  }
  const dwrs::durability::RecoveryReport recovery = stack->last_recovery();

  // Segment boundaries are quiesce points: time the segment that ends
  // there, check the sample, then run a read burst outside the timing.
  std::vector<PassTiming> segments;
  dwrs::faults::RunReport report0;
  dwrs::durability::WalStats wal0;
  const clockid_t feeder = CurrentThreadCpuClock();
  PassTiming mark;  // clocks at the end of the previous boundary
  int64_t step_end_ns = 0;
  stack->Run(stream, [&](uint64_t step) {
    if (traced) {
      step_us[step] = static_cast<float>(WallNs() - step_end_ns) / 1000.0f;
    }
    if (step >= kWarmupItems && (step - kWarmupItems) % kSegmentItems == 0) {
      const double wall = WallSeconds();
      const double cpu = ProcessCpuSeconds();
      const double feeder_cpu = ThreadCpuSeconds(feeder);
      if (step == kWarmupItems) {
        report0 = stack->report();
        wal0 = stack->wal_stats();
      } else {
        segments.push_back({kSegmentItems, wall - mark.wall_s,
                            cpu - mark.cpu_s, feeder_cpu - mark.feeder_cpu_s,
                            0.0, 0.0});
        heap.Sample();
        out.checks.Record(CheckFedSample(stack->coordinator().Sample(),
                                         kSampleSize, stream.events(), 0));
        reads.Burst(stack->coordinator(),
                    kReadShare * segments.back().wall_s, &readers);
      }
      mark.wall_s = WallSeconds();
      mark.cpu_s = ProcessCpuSeconds();
      mark.feeder_cpu_s = ThreadCpuSeconds(feeder);
    }
    step_end_ns = WallNs();
  });
  const dwrs::faults::RunReport report1 = stack->report();
  const dwrs::durability::WalStats wal1 = stack->wal_stats();
  out.checks.Absorb(readers.checks());

  // The uninterrupted reference: the fault harness on the simulator, same
  // seeds, the whole stream in one run.
  dwrs::faults::FaultyWswor reference(config, faults,
                                      dwrs::faults::Backend::kSim);
  reference.Run(stream);
  out.checks.Record(CheckDurableOutcome(
      report1.clean, report1.recovery_consistent && recovery.consistent,
      stack->SampleIds(), reference.SampleIds()));
  stack.reset();
  std::filesystem::remove_all(durability.dir);

  const double items = static_cast<double>(segments.size() * kSegmentItems);
  out.Fact("segments", std::to_string(segments.size()));
  out.Fact("segment_items", std::to_string(kSegmentItems));
  out.Fact("kill_step", std::to_string(kill_step));
  out.Fact("state_fs", FileSystemOf(options.work_dir));
  out.Fact("threads",
           "feeder 1 and the engine inside DurableWswor (pool sized by the "
           "library default), all on cpu " + std::to_string(pin.cpu()) +
               "; readers 2 on any cpu, only between segments");
  AddThroughputMetrics(segments, &out);
  AddReadMetrics(readers, &out);
  out.Add("peak_heap_mb", heap.peak_mb(), "MB");
  AddSetupMetric(setup_s, &out);
  if (!traced) return out;

  // on_step runs after the step's commit and checkpoint, so the interval
  // of step t carries t's durability work.
  std::vector<double> all_us, commit_us, checkpoint_us, plain_us;
  for (uint64_t step = kWarmupItems + 1; step < step_us.size(); ++step) {
    const double us = step_us[step];
    all_us.push_back(us);
    if (step % durability.checkpoint_interval_steps == 0) {
      checkpoint_us.push_back(us);
    } else if (step % durability.commit_interval_steps == 0) {
      commit_us.push_back(us);
    } else {
      plain_us.push_back(us);
    }
  }
  const PassTiming total = Total(segments);
  const auto delta = [&](uint64_t dwrs::faults::RunReport::*field) {
    return static_cast<double>(report1.*field - report0.*field);
  };
  out.checks.Expect(total.feeder_cpu_s <= total.wall_s,
                    "feeder CPU time within its wall time");
  out.Add("engine.feeder_cpu_frac", total.feeder_cpu_s / total.wall_s, "ratio");
  out.Add("engine.feeder_wait_s", total.wall_s - total.feeder_cpu_s, "s");
  // With zero faults every message the fault transport forwards is one
  // message on the engine underneath it.
  out.Add("engine.msgs_per_kitem",
          delta(&dwrs::faults::RunReport::faults_forwarded) * 1e3 / items,
          "msgs/kitem");
  AddReaderLayerMetrics(reads.stats(), readers.cpu_frac(), read_tracer, &out);
  out.Add("faults.delivered_per_kitem",
          delta(&dwrs::faults::RunReport::delivered) * 1e3 / items, "1/kitem");
  out.Add("faults.retransmits",
          delta(&dwrs::faults::RunReport::retransmits_sent), "count");
  out.Add("durability.step_us_p50", Quantile(all_us, 0.5), "us");
  out.Add("durability.step_us_p99", Quantile(all_us, 0.99), "us");
  out.Add("durability.commit_extra_us", Median(commit_us) - Median(plain_us),
          "us");
  out.Add("durability.checkpoint_extra_us",
          Median(checkpoint_us) - Median(plain_us), "us");
  out.Add("durability.wal_bytes_per_item",
          static_cast<double>(wal1.bytes_appended - wal0.bytes_appended) /
              items,
          "B/item");
  out.Add("durability.wal_commits_per_kitem",
          static_cast<double>(wal1.commits - wal0.commits) * 1e3 / items,
          "1/kitem");
  out.Add("durability.wal_records_replayed",
          static_cast<double>(recovery.wal_records_replayed), "count");
  out.Add("durability.refed_steps",
          static_cast<double>(kill_step - recovery.checkpoint_step), "count");
  return out;
}

}  // namespace

RunResult RunDurable(const RunOptions& options) {
  const auto measure = [](const RunOptions& o, bool traced) {
    return Measure(o, ZipfInput(StreamItems(o.seconds), o.seed), traced);
  };
  return options.traced ? TracedRun(options, measure)
                        : measure(options, false);
}

}  // namespace perfbench
