#include "measure.h"

#include <malloc.h>
#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error("clock_gettime failed");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

clockid_t CurrentThreadCpuClock() {
  clockid_t clock{};
  if (pthread_getcpuclockid(pthread_self(), &clock) != 0) {
    throw std::runtime_error("pthread_getcpuclockid failed");
  }
  return clock;
}

double ThreadCpuSeconds(clockid_t clock) { return ClockSeconds(clock); }

CpuPin::CpuPin() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int c = CPU_SETSIZE - 1; c >= 0 && cpu_ < 0; --c) {
    if (CPU_ISSET(c, &saved_)) cpu_ = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu_, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

CpuPin::~CpuPin() { sched_setaffinity(0, sizeof(saved_), &saved_); }

namespace {

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

}  // namespace

HeapGrowth::HeapGrowth() : base_mb_(HeapInUseMb()) {}

void HeapGrowth::Sample() {
  peak_mb_ = std::max(peak_mb_, HeapInUseMb() - base_mb_);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TrimmedMean(std::vector<double> values, double trim) {
  std::sort(values.begin(), values.end());
  const size_t cut = static_cast<size_t>(trim * static_cast<double>(values.size()));
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = cut; i + cut < values.size(); ++i, ++n) sum += values[i];
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void CheckTally::Expect(bool ok, const char* what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (messages_.size() < 8) messages_.emplace_back(what);
}

void CheckTally::Record(const std::string& failure) {
  ++attempted_;
  if (failure.empty()) return;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(failure);
}

void CheckTally::Absorb(const CheckTally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& m : other.messages_) {
    if (messages_.size() < 8) messages_.push_back(m);
  }
}

double RunResult::Get(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  throw std::runtime_error("metric not recorded: " + name);
}

}  // namespace perfbench
