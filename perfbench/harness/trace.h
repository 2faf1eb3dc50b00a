// Outside-in tracing for the traced run. The benchmark hands the engine
// decorators in place of its own endpoints and transports; each forwards
// every call unchanged and records a span around it on the calling
// thread. The benchmark also opens spans around its own calls into the
// library (feeder Push loop and Flush, root merge, estimator calls).
// Nothing inside the library is instrumented.
//
// Spans stay in memory — one ThreadTrace per thread, written only by
// that thread — and are read at quiesce points (the engine's quiesce
// handshake orders the workers' writes before the feeder's reads) or
// after the writing thread joined. Per-item-rate spans (site OnItems /
// OnMessage) keep totals only; every other kind also keeps its events,
// written out by Tracer::Write when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <time.h>

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/node.h"

namespace perfbench {

enum class Span : int {
  kSiteOnItems = 0,   // site endpoint OnItems (a control-poll sub-batch)
  kSiteOnMessage,     // site endpoint control message
  kUpstreamSend,      // Transport::SendToCoordinator from a site
  kCoordOnMessage,    // coordinator endpoint OnMessage
  kFeederPush,        // the feeder's Push loop over one pass
  kFeederFlush,       // the pass-end Flush (quiesce)
  kRootMerge,         // ShardedEngine::MergedSample
  kEstimatorSample,   // QueryService::EstimatorSample
  kSubsetSum,         // EstimateSubsetSum over that sample
  kNumKinds,
};
const char* SpanName(Span kind);

enum class Role : int { kFeeder = 0, kWorker, kCoordinator, kReader };
const char* RoleName(Role role);

struct SpanEvent {
  int16_t kind = 0;
  int16_t parent = -1;  // kind of the span open on the same thread, or -1
  int32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct SpanTotal {
  uint64_t count = 0;
  int64_t ns = 0;
  uint64_t items = 0;  // site OnItems: items in the spans
};

class ThreadTrace {
 public:
  ThreadTrace(Role role, int index);

  Role role() const { return role_; }
  int index() const { return index_; }
  clockid_t cpu_clock() const { return cpu_clock_; }
  // True iff the thread's CPU time since registration is within its wall
  // time since registration (clock granularity allowed for).
  bool CpuWithinWall() const;

  void Record(Span kind, int64_t start_ns, int64_t end_ns, uint64_t items);

  const SpanTotal& total(Span kind) const {
    return totals_[static_cast<size_t>(kind)];
  }
  const std::vector<SpanEvent>& events() const { return events_; }
  uint64_t events_dropped() const { return events_dropped_; }

  // Kind of the innermost open span (the parent of the next one).
  int16_t open = -1;

 private:
  const Role role_;
  const int index_;
  const clockid_t cpu_clock_;
  const double wall0_;
  const double cpu0_;
  std::array<SpanTotal, static_cast<size_t>(Span::kNumKinds)> totals_{};
  std::vector<SpanEvent> events_;
  uint64_t events_dropped_ = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The calling thread's trace, registered under `role` on first use.
  ThreadTrace& Current(Role role);

  // Rollups; call at a quiesce point or after the writers joined.
  SpanTotal Total(Role role, Span kind) const;
  std::vector<double> DurationsUs(Span kind) const;
  // Summed CPU time of the live threads registered under `role`.
  double CpuSeconds(Role role) const;
  // ThreadTrace::CpuWithinWall over every live registered thread.
  bool CpuWithinWall() const;

  // Writes every kept event as CSV (kind,parent,role,thread,start_ns,
  // end_ns); returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  const uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Role role, Span kind, uint64_t items = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
  Span kind_;
  uint64_t items_;
  int16_t parent_;
  int64_t start_ns_;
};

// --- decorators ---------------------------------------------------------

class TracedSite : public dwrs::sim::SiteNode {
 public:
  TracedSite(dwrs::sim::SiteNode* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  void OnItem(const dwrs::Item& item) override;
  void OnItems(const dwrs::Item* items, size_t n) override;
  void OnMessage(const dwrs::sim::Payload& msg) override;
  void OnRound(uint64_t step) override { inner_->OnRound(step); }
  dwrs::sim::SiteHotPathCounters HotPathCounters() const override {
    return inner_->HotPathCounters();
  }

 private:
  dwrs::sim::SiteNode* const inner_;
  Tracer* const tracer_;
};

class TracedCoordinator : public dwrs::sim::CoordinatorNode {
 public:
  TracedCoordinator(dwrs::sim::CoordinatorNode* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  void OnMessage(int site, const dwrs::sim::Payload& msg) override;
  dwrs::MergeableSample ShardSample() const override {
    return inner_->ShardSample();
  }
  uint64_t StateVersion() const override { return inner_->StateVersion(); }

 private:
  dwrs::sim::CoordinatorNode* const inner_;
  Tracer* const tracer_;
};

class TracedTransport : public dwrs::sim::Transport {
 public:
  TracedTransport(dwrs::sim::Transport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  void SendToCoordinator(int site, const dwrs::sim::Payload& msg) override;
  void SendToSite(int site, const dwrs::sim::Payload& msg) override {
    inner_->SendToSite(site, msg);
  }
  void Broadcast(const dwrs::sim::Payload& msg) override {
    inner_->Broadcast(msg);
  }
  uint64_t step() const override { return inner_->step(); }

 private:
  dwrs::sim::Transport* const inner_;
  Tracer* const tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
