// Command-line driver: runs any of the distributed samplers/trackers on
// a configurable synthetic workload and prints message statistics (and
// optionally a CSV row), so experiments beyond the canned benches can be
// scripted without writing C++.
//
// Usage:
//   dwrs_cli [stats|trace|recover|wal-dump] [flags]
//
// Default (no subcommand): run one sampler/tracker and print totals.
//   dwrs_cli [--algo=wswor|naive|uswor|wswr|residual_hh|l1|det_l1|sqrtk_l1]
//            [--k=16] [--s=32] [--n=100000] [--seed=1]
//            [--eps=0.1] [--delta=0.1]
//            [--dist=uniform:1,16 | zipf:1.2 | pareto:1.3 | const:1 |
//             geometric:0.1]
//            [--partition=random | rr | single | block:64]
//            [--window=4096]  (algo=window)
//            [--csv]          (print a single machine-readable row)
//
// `stats`: same run, but print the unified observability snapshot as
// JSON — the exact field schema of obs/schema.h, shared with the bench
// JSON rows and every ToString in the tree.
//
// `trace`: seeded faulty sharded wswor run with the flight recorder on;
// writes Chrome trace_event JSON (chrome://tracing, Perfetto) to --out
// and prints the run's fault-report snapshot as JSON. Extra flags:
//   [--shards=4] [--drop=0.05] [--dup=0.05] [--delay=0] [--crash=0.002]
//   [--fault-seed=7] [--backend=engine|sim] [--out=trace.json]
//   [--deterministic]  (zero timestamps: same seed => same event stream)
//
// `recover`: durable sharded wswor ingest against an on-disk state
// directory (WAL + checkpoints, src/durability/). Three roles, so a
// kill-and-recover round trip can be scripted (CI's recovery-soak job):
//   dwrs_cli recover --dir=state --kill-at-step=40   # dies with SIGKILL
//   dwrs_cli recover --dir=state --resume            # recovers, finishes
//   dwrs_cli recover --reference                     # uninterrupted run
// All three print a JSON snapshot whose `sample_hash` must agree between
// the resumed run and the reference. Extra flags:
//   [--dir=dwrs_state] [--shards=2] [--kill-at-step=0] [--resume]
//   [--reference] [--kill-prob=0] [--commit-interval=4]
//   [--checkpoint-interval=32] [--fault-seed=7] [--backend=engine|sim]
//
// `wal-dump`: decode one WAL segment and print a JSON line per record
// (plus a summary on stderr). Flags: --file=<wal-N.log>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "dwrs.h"
#include "durability/durable_shard.h"
#include "faults/harness.h"
#include "obs/metrics.h"
#include "obs/schema.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/math_util.h"

namespace dwrs {
namespace {

struct Options {
  std::string mode = "run";  // run | stats | trace (argv[1] subcommand)
  std::string algo = "wswor";
  int k = 16;
  int s = 32;
  uint64_t n = 100000;
  uint64_t seed = 1;
  double eps = 0.1;
  double delta = 0.1;
  uint64_t window = 4096;
  std::string dist = "uniform:1,16";
  std::string partition = "random";
  bool csv = false;
  // trace-mode fault schedule and output.
  int shards = 4;
  double drop = 0.05;
  double dup = 0.05;
  double delay = 0.0;
  double crash = 0.002;
  uint64_t fault_seed = 7;
  std::string backend = "engine";
  std::string out = "trace.json";
  bool deterministic = false;
  // recover-mode durable state + kill driving.
  std::string dir = "dwrs_state";
  uint64_t kill_at_step = 0;
  bool resume = false;
  bool reference = false;
  double kill_prob = 0.0;
  uint64_t commit_interval = 4;
  uint64_t checkpoint_interval = 32;
  // wal-dump input.
  std::string file;
};

bool ConsumeFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

Options Parse(int argc, char** argv) {
  Options opt;
  int first_flag = 1;
  if (argc > 1 && argv[1][0] != '-') {
    opt.mode = argv[1];
    if (opt.mode != "stats" && opt.mode != "trace" && opt.mode != "recover" &&
        opt.mode != "wal-dump") {
      std::fprintf(stderr,
                   "unknown subcommand: %s (stats|trace|recover|wal-dump)\n",
                   argv[1]);
      std::exit(2);
    }
    first_flag = 2;
  }
  for (int i = first_flag; i < argc; ++i) {
    std::string v;
    if (ConsumeFlag(argv[i], "--algo", &v)) {
      opt.algo = v;
    } else if (ConsumeFlag(argv[i], "--k", &v)) {
      opt.k = std::atoi(v.c_str());
    } else if (ConsumeFlag(argv[i], "--s", &v)) {
      opt.s = std::atoi(v.c_str());
    } else if (ConsumeFlag(argv[i], "--n", &v)) {
      opt.n = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ConsumeFlag(argv[i], "--seed", &v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ConsumeFlag(argv[i], "--eps", &v)) {
      opt.eps = std::atof(v.c_str());
    } else if (ConsumeFlag(argv[i], "--delta", &v)) {
      opt.delta = std::atof(v.c_str());
    } else if (ConsumeFlag(argv[i], "--window", &v)) {
      opt.window = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ConsumeFlag(argv[i], "--dist", &v)) {
      opt.dist = v;
    } else if (ConsumeFlag(argv[i], "--partition", &v)) {
      opt.partition = v;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      opt.csv = true;
    } else if (ConsumeFlag(argv[i], "--shards", &v)) {
      opt.shards = std::atoi(v.c_str());
    } else if (ConsumeFlag(argv[i], "--drop", &v)) {
      opt.drop = std::atof(v.c_str());
    } else if (ConsumeFlag(argv[i], "--dup", &v)) {
      opt.dup = std::atof(v.c_str());
    } else if (ConsumeFlag(argv[i], "--delay", &v)) {
      opt.delay = std::atof(v.c_str());
    } else if (ConsumeFlag(argv[i], "--crash", &v)) {
      opt.crash = std::atof(v.c_str());
    } else if (ConsumeFlag(argv[i], "--fault-seed", &v)) {
      opt.fault_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ConsumeFlag(argv[i], "--backend", &v)) {
      opt.backend = v;
    } else if (ConsumeFlag(argv[i], "--out", &v)) {
      opt.out = v;
    } else if (std::strcmp(argv[i], "--deterministic") == 0) {
      opt.deterministic = true;
    } else if (ConsumeFlag(argv[i], "--dir", &v)) {
      opt.dir = v;
    } else if (ConsumeFlag(argv[i], "--kill-at-step", &v)) {
      opt.kill_at_step = std::strtoull(v.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      opt.resume = true;
    } else if (std::strcmp(argv[i], "--reference") == 0) {
      opt.reference = true;
    } else if (ConsumeFlag(argv[i], "--kill-prob", &v)) {
      opt.kill_prob = std::atof(v.c_str());
    } else if (ConsumeFlag(argv[i], "--commit-interval", &v)) {
      opt.commit_interval = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ConsumeFlag(argv[i], "--checkpoint-interval", &v)) {
      opt.checkpoint_interval = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ConsumeFlag(argv[i], "--file", &v)) {
      opt.file = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return opt;
}

std::unique_ptr<WeightGenerator> MakeWeights(const std::string& spec) {
  const size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string args =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (kind == "uniform") {
    double lo = 1.0, hi = 16.0;
    std::sscanf(args.c_str(), "%lf,%lf", &lo, &hi);
    return std::make_unique<UniformWeights>(lo, hi);
  }
  if (kind == "zipf") {
    const double alpha = args.empty() ? 1.2 : std::atof(args.c_str());
    return std::make_unique<ZipfWeights>(1u << 20, alpha);
  }
  if (kind == "pareto") {
    const double alpha = args.empty() ? 1.3 : std::atof(args.c_str());
    return std::make_unique<ParetoWeights>(alpha);
  }
  if (kind == "const") {
    const double w = args.empty() ? 1.0 : std::atof(args.c_str());
    return std::make_unique<ConstantWeights>(w);
  }
  if (kind == "geometric") {
    const double eps = args.empty() ? 0.1 : std::atof(args.c_str());
    return std::make_unique<GeometricGrowthWeights>(eps);
  }
  std::fprintf(stderr, "unknown --dist kind: %s\n", kind.c_str());
  std::exit(2);
}

std::unique_ptr<Partitioner> MakePartition(const std::string& spec) {
  if (spec == "random") return std::make_unique<RandomPartitioner>();
  if (spec == "rr") return std::make_unique<RoundRobinPartitioner>();
  if (spec == "single") return std::make_unique<SingleSitePartitioner>(0);
  if (spec.rfind("block:", 0) == 0) {
    return std::make_unique<BlockPartitioner>(
        std::strtoull(spec.c_str() + 6, nullptr, 10));
  }
  std::fprintf(stderr, "unknown --partition: %s\n", spec.c_str());
  std::exit(2);
}

struct RunResult {
  uint64_t messages = 0;
  uint64_t words = 0;
  uint64_t broadcasts = 0;
  double theory = 0.0;
  std::string extra;
  sim::MessageStats stats;  // full counters, for the stats subcommand
};

RunResult Dispatch(const Options& opt, const Workload& w) {
  RunResult r;
  const double total = w.TotalWeight();
  if (opt.algo == "wswor") {
    DistributedWswor sampler(WsworConfig{
        .num_sites = opt.k, .sample_size = opt.s, .seed = opt.seed});
    sampler.Run(w);
    r = {sampler.stats().total_messages(), sampler.stats().words,
         sampler.stats().broadcast_events,
         Theorem3MessageBound(opt.k, opt.s, total),
         "sample=" + std::to_string(sampler.Sample().size()), sampler.stats()};
  } else if (opt.algo == "naive") {
    NaiveDistributedWswor sampler(opt.k, opt.s, opt.seed);
    sampler.Run(w);
    r = {sampler.stats().total_messages(), sampler.stats().words,
         sampler.stats().broadcast_events,
         NaiveMessageBound(opt.k, opt.s, total), "", sampler.stats()};
  } else if (opt.algo == "uswor") {
    UsworConfig config;
    config.num_sites = opt.k;
    config.sample_size = opt.s;
    config.seed = opt.seed;
    DistributedUnweightedSwor sampler(config);
    sampler.Run(w);
    r = {sampler.stats().total_messages(), sampler.stats().words,
         sampler.stats().broadcast_events,
         Theorem3MessageBound(opt.k, opt.s, static_cast<double>(opt.n)), "", sampler.stats()};
  } else if (opt.algo == "wswr") {
    DistributedWeightedSwr sampler(opt.k, opt.s, opt.seed);
    sampler.Run(w);
    r = {sampler.stats().total_messages(), sampler.stats().words,
         sampler.stats().broadcast_events,
         Corollary1MessageBound(opt.k, opt.s, total),
         "distinct=" + std::to_string(sampler.DistinctInSample()), sampler.stats()};
  } else if (opt.algo == "residual_hh") {
    ResidualHeavyHitterTracker tracker(
        ResidualHhConfig{opt.k, opt.eps, opt.delta, opt.seed});
    tracker.Run(w);
    r = {tracker.stats().total_messages(), tracker.stats().words,
         tracker.stats().broadcast_events,
         Theorem4MessageBound(opt.k, opt.eps, opt.delta, total),
         "reported=" + std::to_string(tracker.HeavyHitters().size()), tracker.stats()};
  } else if (opt.algo == "l1") {
    L1Tracker tracker(L1TrackerConfig{
        .num_sites = opt.k, .eps = opt.eps, .delta = opt.delta,
        .seed = opt.seed});
    tracker.Run(w);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "West=%.6g trueW=%.6g",
                  tracker.Estimate(), total);
    r = {tracker.stats().total_messages(), tracker.stats().words,
         tracker.stats().broadcast_events,
         Theorem6MessageBound(opt.k, opt.eps, opt.delta, total), buf, tracker.stats()};
  } else if (opt.algo == "det_l1") {
    DeterministicL1Tracker tracker(opt.k, opt.eps);
    tracker.Run(w);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "West=%.6g trueW=%.6g",
                  tracker.Estimate(), total);
    r = {tracker.stats().total_messages(), tracker.stats().words,
         tracker.stats().broadcast_events,
         opt.k * std::log(std::max(2.0, total)) / opt.eps, buf, tracker.stats()};
  } else if (opt.algo == "sqrtk_l1") {
    SqrtkL1Tracker tracker(opt.k, opt.eps, opt.seed);
    tracker.Run(w);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "West=%.6g trueW=%.6g",
                  tracker.Estimate(), total);
    r = {tracker.stats().total_messages(), tracker.stats().words,
         tracker.stats().broadcast_events,
         HyzMessageBound(opt.k, opt.eps, total), buf, tracker.stats()};
  } else if (opt.algo == "window") {
    DistributedWindowWswor sampler(WindowConfig{
        opt.k, opt.s, opt.window, opt.seed});
    sampler.Run(w);
    r = {sampler.stats().total_messages(), sampler.stats().words,
         sampler.stats().broadcast_events, 0.0,
         "sample=" + std::to_string(sampler.Sample().size()) +
             " skyline=" + std::to_string(sampler.CoordinatorSkyline()), sampler.stats()};
  } else {
    std::fprintf(stderr, "unknown --algo: %s\n", opt.algo.c_str());
    std::exit(2);
  }
  return r;
}

// `stats`: one run, exported through the registry -> snapshot -> JSON
// path every other emitter (bench rows, ToString) uses. The algo and
// workload strings are spliced in front (Snapshot holds numbers only).
int RunStatsMode(const Options& opt, const Workload& w) {
  const RunResult result = Dispatch(opt, w);
  obs::Registry registry;
  registry.AddCollector([&](obs::Snapshot* snap) {
    snap->Append("k", static_cast<uint64_t>(opt.k));
    snap->Append("s", static_cast<uint64_t>(opt.s));
    snap->Append("n", opt.n);
    snap->Append("seed", opt.seed);
    snap->Append("total_weight", w.TotalWeight());
    AppendMessageStats(result.stats, "", snap);
    snap->Append("theory_bound", result.theory);
  });
  const std::string body = registry.ToJson();
  std::printf("{\"algo\": %s, \"dist\": %s, \"partition\": %s%s%s\n",
              util::JsonQuote(opt.algo).c_str(),
              util::JsonQuote(opt.dist).c_str(),
              util::JsonQuote(opt.partition).c_str(),
              body == "{}" ? "" : ", ", body.c_str() + 1);
  return 0;
}

// `trace`: the acceptance scenario as a command — seeded faulty sharded
// wswor with the flight recorder on, Chrome trace JSON to --out, the
// fault-report snapshot to stdout. CI's trace smoke job runs this and
// validates the file with tools/check_trace.py.
int RunTraceMode(const Options& opt, const Workload& w) {
  if (opt.backend != "engine" && opt.backend != "sim") {
    std::fprintf(stderr, "unknown --backend: %s (engine|sim)\n",
                 opt.backend.c_str());
    return 2;
  }
  // Every ring is sized to hold the whole run, so no event is overwritten
  // and check_trace.py can match each delivery to its send. A run records
  // about 3.4 events per item over all threads; the feeder's ring alone
  // takes over 2 (one site_scheduled and one item_span per item, since
  // each step's Flush runs the site on the feeder).
  obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
  recorder.Enable(std::max<uint64_t>(uint64_t{1} << 16, 4 * opt.n),
                  opt.deterministic);
  if (!obs::TracingEnabled()) {
    std::fprintf(stderr,
                 "tracing compiled out (-DDWRS_TRACING=OFF); no trace\n");
    return 1;
  }

  const WsworConfig config{
      .num_sites = opt.k, .sample_size = opt.s, .seed = opt.seed};
  std::vector<faults::FaultConfig> shard_faults;
  for (int j = 0; j < opt.shards; ++j) {
    faults::FaultConfig fc;
    fc.seed = opt.fault_seed + static_cast<uint64_t>(j);
    fc.drop_prob = opt.drop;
    fc.duplicate_prob = opt.dup;
    fc.delay_prob = opt.delay;
    fc.crash_prob = opt.crash;
    shard_faults.push_back(fc);
  }
  const auto backend = opt.backend == "sim" ? faults::Backend::kSim
                                            : faults::Backend::kEngine;
  faults::ShardedFaultyWswor run(config, shard_faults, backend);
  run.Run(w);
  const faults::RunReport report = run.report();
  recorder.Disable();

  std::ofstream trace_out(opt.out);
  trace_out << recorder.ExportChromeTrace();
  trace_out.flush();
  if (!trace_out.good()) {
    std::fprintf(stderr, "failed writing %s\n", opt.out.c_str());
    return 1;
  }

  obs::Snapshot snap;
  snap.Append("shards", static_cast<uint64_t>(opt.shards));
  snap.Append("sample", static_cast<uint64_t>(run.MergedSampleIds().size()));
  AppendFaultReport(report, "faults", &snap);
  snap.Append("trace/events", static_cast<uint64_t>(recorder.Collect().size()));
  snap.Append("trace/dropped", recorder.dropped());
  snap.Append("trace/rings", static_cast<uint64_t>(recorder.ring_count()));
  std::printf("%s\n", snap.ToJson().c_str());
  std::fprintf(stderr, "wrote %s\n", opt.out.c_str());
  return 0;
}

// Order-sensitive FNV-1a over the merged sample ids — the one number
// the recovery-soak script compares between the resumed run and the
// uninterrupted reference.
uint64_t SampleHash(const std::vector<uint64_t>& ids) {
  uint64_t h = 1469598103934665603ull;
  for (const uint64_t id : ids) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (id >> b) & 0xffull;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// `recover`: durable sharded ingest with scriptable kill -9 semantics.
// --kill-at-step raises a REAL SIGKILL at shard 0's quiesce point for
// that step (exit code 137 to the caller); a later --resume invocation
// recovers every shard from --dir and finishes the same workload. The
// reference role runs the plain (non-durable) faulty harness with the
// identical zero-fault schedule, so its sample is the
// bit-identical-by-construction target.
int RunRecoverMode(const Options& opt, const Workload& w) {
  if (opt.backend != "engine" && opt.backend != "sim") {
    std::fprintf(stderr, "unknown --backend: %s (engine|sim)\n",
                 opt.backend.c_str());
    return 2;
  }
  const auto backend = opt.backend == "sim" ? faults::Backend::kSim
                                            : faults::Backend::kEngine;
  const WsworConfig config{
      .num_sites = opt.k, .sample_size = opt.s, .seed = opt.seed};
  std::vector<faults::FaultConfig> shard_faults;
  for (int j = 0; j < opt.shards; ++j) {
    faults::FaultConfig fc;
    fc.seed = opt.fault_seed + static_cast<uint64_t>(j);
    fc.process_kill_prob = opt.kill_prob;
    shard_faults.push_back(fc);
  }

  obs::Snapshot snap;
  snap.Append("shards", static_cast<uint64_t>(opt.shards));
  if (opt.reference) {
    faults::ShardedFaultyWswor ref(config, shard_faults, backend);
    ref.Run(w);
    const std::vector<uint64_t> ids = ref.MergedSampleIds();
    snap.Append("sample", static_cast<uint64_t>(ids.size()));
    snap.Append("sample_hash", SampleHash(ids));
    AppendFaultReport(ref.report(), "faults", &snap);
    std::printf("%s\n", snap.ToJson().c_str());
    return 0;
  }

  if (!durability::EnsureDir(opt.dir)) {
    std::fprintf(stderr, "cannot create --dir: %s\n", opt.dir.c_str());
    return 1;
  }
  durability::DurabilityOptions dopt;
  dopt.dir = opt.dir;
  dopt.commit_interval_steps = opt.commit_interval;
  dopt.checkpoint_interval_steps = opt.checkpoint_interval;
  durability::ShardedDurableWswor run(config, shard_faults, backend, dopt);

  // Drive the shards by hand (the sharded Run() minus the hook) so the
  // scripted kill can fire at shard 0's quiesce point. SIGKILL is not
  // catchable: the kernel tears the process down exactly as the soak
  // intends, un-committed WAL bytes and all.
  const std::vector<Workload> splits = SplitByShard(w, run.topology());
  for (int j = 0; j < run.topology().num_shards(); ++j) {
    std::function<void(uint64_t)> on_step;
    if (j == 0 && opt.kill_at_step > 0) {
      const uint64_t kill_at = opt.kill_at_step;
      on_step = [kill_at](uint64_t step) {
        if (step == kill_at) ::raise(SIGKILL);
      };
    }
    run.shard(j).Run(splits[static_cast<size_t>(j)], on_step);
  }

  const faults::RunReport report = run.report();
  if (opt.resume && report.recoveries == 0) {
    std::fprintf(stderr,
                 "note: --resume found no durable state under %s "
                 "(ran from genesis)\n",
                 opt.dir.c_str());
  }
  const std::vector<uint64_t> ids = run.MergedSampleIds();
  snap.Append("sample", static_cast<uint64_t>(ids.size()));
  snap.Append("sample_hash", SampleHash(ids));
  AppendFaultReport(report, "faults", &snap);
  std::printf("%s\n", snap.ToJson().c_str());
  return report.recovery_consistent ? 0 : 1;
}

// `wal-dump`: decode one segment with the real reader (longest valid
// prefix, stop at the first bad CRC) and print each record as a JSON
// line; the prefix/truncation summary goes to stderr.
int RunWalDumpMode(const Options& opt) {
  if (opt.file.empty()) {
    std::fprintf(stderr, "wal-dump requires --file=<wal-N.log>\n");
    return 2;
  }
  const durability::WalReadResult result = durability::ReadWalFile(opt.file);
  if (!result.ok) {
    std::fprintf(stderr, "%s: %s\n", opt.file.c_str(), result.error.c_str());
    return 1;
  }
  size_t undecodable = 0;
  for (size_t i = 0; i < result.payloads.size(); ++i) {
    const auto record = durability::DecodeWalRecord(result.payloads[i]);
    if (!record.has_value()) {
      ++undecodable;
      std::printf("{\"i\": %zu, \"type\": \"undecodable\", \"bytes\": %zu}\n",
                  i, result.payloads[i].size());
      continue;
    }
    const std::string type =
        util::JsonQuote(durability::WalRecordTypeName(record->type));
    switch (record->type) {
      case durability::WalRecordType::kMessage:
        std::printf("{\"i\": %zu, \"type\": %s, \"site\": %d, "
                    "\"msg_type\": %u, \"a\": %llu, \"x\": %.17g, "
                    "\"y\": %.17g, \"seq\": %u, \"epoch\": %u}\n",
                    i, type.c_str(), record->site, record->msg.type,
                    static_cast<unsigned long long>(record->msg.a),
                    record->msg.x, record->msg.y, record->msg.seq,
                    record->msg.epoch);
        break;
      case durability::WalRecordType::kThresholdBump:
        std::printf("{\"i\": %zu, \"type\": %s, \"threshold\": %.17g}\n", i,
                    type.c_str(), record->threshold);
        break;
      case durability::WalRecordType::kEpochChange:
        std::printf("{\"i\": %zu, \"type\": %s, \"epoch\": %lld}\n", i,
                    type.c_str(), static_cast<long long>(record->epoch));
        break;
      case durability::WalRecordType::kSampleDelta:
        if (record->evicted_valid) {
          std::printf("{\"i\": %zu, \"type\": %s, \"id\": %llu, "
                      "\"weight\": %.17g, \"key\": %.17g, "
                      "\"evicted_id\": %llu}\n",
                      i, type.c_str(),
                      static_cast<unsigned long long>(record->added.item.id),
                      record->added.item.weight, record->added.key,
                      static_cast<unsigned long long>(record->evicted_id));
        } else {
          std::printf("{\"i\": %zu, \"type\": %s, \"id\": %llu, "
                      "\"weight\": %.17g, \"key\": %.17g}\n",
                      i, type.c_str(),
                      static_cast<unsigned long long>(record->added.item.id),
                      record->added.item.weight, record->added.key);
        }
        break;
      case durability::WalRecordType::kStepMark:
        std::printf("{\"i\": %zu, \"type\": %s, \"step\": %llu}\n", i,
                    type.c_str(),
                    static_cast<unsigned long long>(record->step));
        break;
      case durability::WalRecordType::kCheckpointMark:
        std::printf("{\"i\": %zu, \"type\": %s, \"seq\": %llu}\n", i,
                    type.c_str(),
                    static_cast<unsigned long long>(record->step));
        break;
    }
  }
  std::fprintf(stderr,
               "%s: %zu records (%zu undecodable), %zu valid bytes%s\n",
               opt.file.c_str(), result.payloads.size(), undecodable,
               result.valid_bytes,
               result.truncated_tail ? ", TRUNCATED TAIL" : "");
  return 0;
}

}  // namespace
}  // namespace dwrs

int main(int argc, char** argv) {
  using namespace dwrs;
  const auto opt = Parse(argc, argv);
  if (opt.mode == "wal-dump") return RunWalDumpMode(opt);
  const Workload w = [&] {
    WorkloadBuilder builder;
    builder.num_sites(opt.k)
        .num_items(opt.n)
        .seed(opt.seed)
        .weights(MakeWeights(opt.dist))
        .partitioner(MakePartition(opt.partition));
    if (opt.algo == "wswr") builder.integer_weights(true);
    return builder.Build();
  }();
  if (opt.mode == "stats") return RunStatsMode(opt, w);
  if (opt.mode == "trace") return RunTraceMode(opt, w);
  if (opt.mode == "recover") return RunRecoverMode(opt, w);
  const auto result = Dispatch(opt, w);
  if (opt.csv) {
    std::printf("%s,%d,%d,%llu,%.6g,%llu,%llu,%llu,%.1f\n", opt.algo.c_str(),
                opt.k, opt.s, static_cast<unsigned long long>(opt.n),
                w.TotalWeight(),
                static_cast<unsigned long long>(result.messages),
                static_cast<unsigned long long>(result.words),
                static_cast<unsigned long long>(result.broadcasts),
                result.theory);
  } else {
    std::printf("algo=%s k=%d s=%d n=%llu W=%.6g\n", opt.algo.c_str(), opt.k,
                opt.s, static_cast<unsigned long long>(opt.n),
                w.TotalWeight());
    std::printf("messages=%llu words=%llu broadcasts=%llu theory~%.0f %s\n",
                static_cast<unsigned long long>(result.messages),
                static_cast<unsigned long long>(result.words),
                static_cast<unsigned long long>(result.broadcasts),
                result.theory, result.extra.c_str());
  }
  return 0;
}
