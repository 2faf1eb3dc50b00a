// perfbench: the repository benchmark's measuring program. run.py builds
// it and calls
//
//   perfbench --workload <ingest|live_query|durable> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// It prints the run's facts, then one line per measured metric,
//
//   metric <name> <value> <unit>
//
// and last `checks <attempted> <failed>`. --trace 0 measures the
// end-to-end metrics, --trace 1 the per-layer ones; run.py turns the
// lines into the result object BENCHMARK.json specifies.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<ingest|live_query|durable> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Threads each workload keeps busy (load generators plus pool workers).
int BusyThreads(const std::string& workload) {
  if (workload == "live_query") return 4;  // 2 readers + 2 pool workers
  return 3;                                // feeder + 2 pool workers
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return Usage("every option takes a value");
  for (const char* key : {"workload", "seed", "seconds", "trace", "work-dir"}) {
    if (args.count(key) == 0) return Usage("missing option");
  }
  RunOptions options;
  const std::string workload = args["workload"];
  try {
    options.seed = std::stoull(args["seed"]);
    options.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return Usage("--seed and --seconds take numbers");
  }
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    return Usage("--seconds must be in (0, 120]");
  }
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace takes 0 or 1");
  }
  options.traced = args["trace"] == "1";
  options.work_dir = args["work-dir"];
  RunResult (*run)(const RunOptions&) = nullptr;
  if (workload == "ingest") run = RunIngest;
  if (workload == "live_query") run = RunLiveQuery;
  if (workload == "durable") run = RunDurable;
  if (run == nullptr) return Usage("unknown workload");

  // Steadiness guard: timings from an unoptimized build are refused.
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with "
                       "assertions on (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage("cannot create --work-dir");

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("workload %s seed %llu seconds %g trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.traced ? 1 : 0);
  std::printf("machine: nproc %u, cpu %s\n", nproc, CpuModel().c_str());
  std::printf("build: %s, %s\n", PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  if (static_cast<int>(nproc) < BusyThreads(workload)) {
    std::printf("WARNING: %d busy threads exceed nproc %u; timings are "
                "oversubscribed\n",
                BusyThreads(workload), nproc);
  }
  std::fflush(stdout);

  RunResult result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& [key, value] : result.facts) {
    std::printf("%s: %s\n", key.c_str(), value.c_str());
  }

  for (const Metric& m : result.metrics) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const CheckTally& checks = result.checks;
  for (const std::string& m : checks.messages()) {
    std::printf("check failed: %s\n", m.c_str());
  }
  std::printf("checks %llu %llu\n",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  return 0;
}
