// Shared helpers for the experiment harnesses. Every bench prints
// paper-vs-measured rows so EXPERIMENTS.md can record the comparison, and
// can additionally emit a machine-readable BENCH_<name>.json via JsonBench
// so the perf trajectory is tracked across PRs.

#ifndef DWRS_BENCH_BENCH_UTIL_H_
#define DWRS_BENCH_BENCH_UTIL_H_

#include <sched.h>

#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dwrs.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/json.h"

// CMAKE_BUILD_TYPE, set per bench target by CMakeLists.txt.
#ifndef DWRS_BUILD_TYPE
#define DWRS_BUILD_TYPE "unknown"
#endif

namespace dwrs::bench {

// JSON scalar/string encoding: the single shared implementation in
// util/json.h (also used by the obs snapshot export and the trace
// writer), aliased here so existing bench code keeps its spelling.
using util::JsonNumber;
using util::JsonQuote;

// The CPUs this process may run on, as `nproc` counts them, so a run
// pinned with taskset records its pin rather than the machine's cores.
inline unsigned UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

// The first "model name" of /proc/cpuinfo, or "unknown" without one.
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const size_t start = line.find_first_not_of(" \t", colon + 1);
    if (start == std::string::npos) break;
    return line.substr(start);
  }
  return "unknown";
}

// Collects rows of key/value fields and writes them as
// BENCH_<name>.json:
//   {"name": "...", "params": {...}, "rows": [{...}, {...}]}
// Params hold run-wide settings (workload, item count) followed by the
// machine that ran them (nproc, cpu_model, compiler, build_type); rows
// hold one measurement each (typically: backend/config keys plus
// items_per_sec and messages). Values are numbers or strings; field
// order is preserved.
class JsonBench {
 public:
  explicit JsonBench(std::string name) : name_(std::move(name)) {}

  JsonBench& Param(const std::string& key, double value) {
    params_.emplace_back(key, JsonNumber(value));
    return *this;
  }
  JsonBench& Param(const std::string& key, const std::string& value) {
    params_.emplace_back(key, JsonQuote(value));
    return *this;
  }

  JsonBench& StartRow() {
    rows_.emplace_back();
    return *this;
  }
  JsonBench& Field(const std::string& key, double value) {
    CurrentRow().emplace_back(key, JsonNumber(value));
    return *this;
  }
  JsonBench& Field(const std::string& key, uint64_t value) {
    CurrentRow().emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonBench& Field(const std::string& key, const std::string& value) {
    CurrentRow().emplace_back(key, JsonQuote(value));
    return *this;
  }

  // Writes BENCH_<name>.json in the working directory; returns the path.
  std::string Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    Fields params = params_;
    params.emplace_back("nproc", std::to_string(UsableCpus()));
    params.emplace_back("cpu_model", JsonQuote(CpuModel()));
    params.emplace_back("compiler", JsonQuote(__VERSION__));
    params.emplace_back("build_type", JsonQuote(DWRS_BUILD_TYPE));
    out << "{\"name\": " << JsonQuote(name_) << ",\n \"params\": ";
    WriteObject(out, params);
    out << ",\n \"rows\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out << (i == 0 ? "\n  " : ",\n  ");
      WriteObject(out, rows_[i]);
    }
    out << "\n ]}\n";
    out.flush();
    DWRS_CHECK(out.good()) << " failed writing " << path;
    return path;
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  Fields& CurrentRow() {
    DWRS_CHECK(!rows_.empty()) << " Field() before StartRow()";
    return rows_.back();
  }

  static void WriteObject(std::ofstream& out, const Fields& fields) {
    out << "{";
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i != 0) out << ", ";
      out << JsonQuote(fields[i].first) << ": " << fields[i].second;
    }
    out << "}";
  }

  std::string name_;
  Fields params_;
  std::vector<Fields> rows_;
};

// Adds every entry of an obs::Snapshot to the current row, so bench JSON
// and the registry/CLI export share one field schema (obs/schema.h) —
// uint64 counters stay integral, doubles go through JsonNumber.
inline JsonBench& SnapshotFields(JsonBench& bench,
                                 const obs::Snapshot& snapshot) {
  for (const auto& [name, value] : snapshot.entries()) {
    if (value.kind == obs::SnapshotValue::Kind::kUint) {
      bench.Field(name, value.u);
    } else {
      bench.Field(name, value.d);
    }
  }
  return bench;
}

// True when the bench was invoked with --quick: CI mode, where every
// bench shrinks its workload to finish in seconds while still emitting
// its full BENCH_<name>.json row schema (so the perf trajectory is
// recorded on every push without slowing the pipeline).
inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") return true;
  }
  return false;
}

inline void Header(const char* experiment, const char* claim) {
  std::printf("==============================================================="
              "=========\n");
  std::printf("%s\n", experiment);
  std::printf("claim: %s\n", claim);
  std::printf("==============================================================="
              "=========\n");
}

inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

inline Workload UniformWorkload(int k, uint64_t n, uint64_t seed,
                                double max_weight = 16.0) {
  return WorkloadBuilder()
      .num_sites(k)
      .num_items(n)
      .seed(seed)
      .weights(std::make_unique<UniformWeights>(1.0, max_weight))
      .partitioner(std::make_unique<RandomPartitioner>())
      .Build();
}

// Skewed query/flow stream: the paper's motivating workload.
inline Workload ZipfWorkload(int k, uint64_t n, uint64_t seed,
                             double alpha = 1.1) {
  return WorkloadBuilder()
      .num_sites(k)
      .num_items(n)
      .seed(seed)
      .weights(std::make_unique<ZipfWeights>(uint64_t{1} << 20, alpha))
      .partitioner(std::make_unique<RandomPartitioner>())
      .Build();
}

// Engine stress: self-similar bursty weights, every item on one (hopping)
// hot site.
inline Workload AdversarialWorkload(int k, uint64_t n, uint64_t seed,
                                    uint64_t hop_every = 0) {
  return WorkloadBuilder()
      .num_sites(k)
      .num_items(n)
      .seed(seed)
      .weights(std::make_unique<SelfSimilarWeights>())
      .partitioner(std::make_unique<AdversarialPartitioner>(hop_every))
      .Build();
}

inline uint64_t RunOurs(const Workload& w, int k, int s, uint64_t seed) {
  DistributedWswor sampler(
      WsworConfig{.num_sites = k, .sample_size = s, .seed = seed});
  sampler.Run(w);
  return sampler.stats().total_messages();
}

inline uint64_t RunNaive(const Workload& w, int k, int s, uint64_t seed) {
  NaiveDistributedWswor sampler(k, s, seed);
  sampler.Run(w);
  return sampler.stats().total_messages();
}

}  // namespace dwrs::bench

#endif  // DWRS_BENCH_BENCH_UTIL_H_
