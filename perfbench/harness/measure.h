// Clocks, order statistics and the result record shared by the three
// workloads. Everything here measures the process from outside the
// library: wall and CPU clocks, resident memory, and the metric list a
// run prints.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <sched.h>
#include <time.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Monotonic wall clock, seconds / nanoseconds.
double WallSeconds();
int64_t WallNs();

// CPU time of the whole process (all threads), seconds.
double ProcessCpuSeconds();

// The calling thread's CPU clock id; any thread of the process can read
// it with ThreadCpuSeconds while the thread is alive.
clockid_t CurrentThreadCpuClock();
double ThreadCpuSeconds(clockid_t clock);

// Confines the calling thread, and the threads it starts from then on, to
// the highest-numbered CPU it may use; the destructor restores its mask.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;
  int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

// Growth of the heap in use (malloc arenas plus mmap-backed blocks) over
// the heap in use at construction, sampled at quiesce points: what the
// stack itself holds, not transient allocations inside a call.
class HeapGrowth {
 public:
  HeapGrowth();
  void Sample();
  double peak_mb() const { return peak_mb_; }

 private:
  double base_mb_;
  double peak_mb_ = 0.0;
};

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
// Takes a copy so callers keep their arrival order.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
// Mean of `values` without the lowest and the highest `trim` share of
// them; 0 when empty.
double TrimmedMean(std::vector<double> values, double trim);

// Output checks of one run: every check counts as attempted, a failed
// one as failed; the first few failure messages are kept for the report.
class CheckTally {
 public:
  // `what` names the check; it is copied only when the check fails, so
  // per-query checks cost no allocation.
  void Expect(bool ok, const char* what);
  // A check written as a function returning its failure ("" = pass).
  void Record(const std::string& failure);
  // Merges a tally kept by another thread (after that thread joined).
  void Absorb(const CheckTally& other);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports: its metrics (end-to-end or per-layer,
// depending on the run), its checks, and the facts that make the numbers
// interpretable (thread counts, input sizes, file system).
struct RunResult {
  std::vector<Metric> metrics;
  CheckTally checks;
  std::vector<std::pair<std::string, std::string>> facts;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
  double Get(const std::string& name) const;
};

// Options every workload receives from the command line.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string work_dir;  // durable state and span traces go here
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
