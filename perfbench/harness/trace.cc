#include "trace.h"

#include <atomic>
#include <cstdio>

#include "measure.h"

namespace perfbench {

namespace {

// Kept events per thread for the written trace; totals and durations
// keep counting past it.
constexpr size_t kMaxEventsPerThread = size_t{1} << 20;

std::atomic<uint64_t> next_tracer_id{1};

// The calling thread's trace for the tracer with id t_tracer_id.
thread_local uint64_t t_tracer_id = 0;
thread_local ThreadTrace* t_trace = nullptr;

bool KeepsEvents(Span kind) {
  return kind != Span::kSiteOnItems && kind != Span::kSiteOnMessage;
}

}  // namespace

const char* SpanName(Span kind) {
  switch (kind) {
    case Span::kSiteOnItems: return "site.on_items";
    case Span::kSiteOnMessage: return "site.on_message";
    case Span::kUpstreamSend: return "transport.send_to_coordinator";
    case Span::kCoordOnMessage: return "coordinator.on_message";
    case Span::kFeederPush: return "feeder.push";
    case Span::kFeederFlush: return "feeder.flush";
    case Span::kRootMerge: return "sharded.merged_sample";
    case Span::kEstimatorSample: return "query.estimator_sample";
    case Span::kSubsetSum: return "estimators.subset_sum";
    case Span::kNumKinds: break;
  }
  return "?";
}

const char* RoleName(Role role) {
  switch (role) {
    case Role::kFeeder: return "feeder";
    case Role::kWorker: return "worker";
    case Role::kCoordinator: return "coordinator";
    case Role::kReader: return "reader";
  }
  return "?";
}

ThreadTrace::ThreadTrace(Role role, int index)
    : role_(role),
      index_(index),
      cpu_clock_(CurrentThreadCpuClock()),
      wall0_(WallSeconds()),
      cpu0_(ThreadCpuSeconds(cpu_clock_)) {}

bool ThreadTrace::CpuWithinWall() const {
  const double cpu = ThreadCpuSeconds(cpu_clock_) - cpu0_;
  return cpu <= (WallSeconds() - wall0_) * 1.001 + 1e-4;
}

void ThreadTrace::Record(Span kind, int64_t start_ns, int64_t end_ns,
                         uint64_t items) {
  SpanTotal& t = totals_[static_cast<size_t>(kind)];
  ++t.count;
  t.ns += end_ns - start_ns;
  t.items += items;
  if (!KeepsEvents(kind)) return;
  if (events_.size() >= kMaxEventsPerThread) {
    ++events_dropped_;
    return;
  }
  events_.push_back({static_cast<int16_t>(kind), open,
                     static_cast<int32_t>(index_), start_ns, end_ns});
}

Tracer::Tracer() : id_(next_tracer_id.fetch_add(1)) {}

ThreadTrace& Tracer::Current(Role role) {
  if (t_tracer_id != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::make_unique<ThreadTrace>(
        role, static_cast<int>(threads_.size())));
    t_trace = threads_.back().get();
    t_tracer_id = id_;
  }
  return *t_trace;
}

SpanTotal Tracer::Total(Role role, Span kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  SpanTotal sum;
  for (const auto& t : threads_) {
    if (t->role() != role) continue;
    const SpanTotal& x = t->total(kind);
    sum.count += x.count;
    sum.ns += x.ns;
    sum.items += x.items;
  }
  return sum;
}

std::vector<double> Tracer::DurationsUs(Span kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const auto& t : threads_) {
    for (const SpanEvent& e : t->events()) {
      if (e.kind == static_cast<int16_t>(kind)) {
        out.push_back(static_cast<double>(e.end_ns - e.start_ns) / 1000.0);
      }
    }
  }
  return out;
}

double Tracer::CpuSeconds(Role role) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (const auto& t : threads_) {
    if (t->role() == role) sum += ThreadCpuSeconds(t->cpu_clock());
  }
  return sum;
}

bool Tracer::CpuWithinWall() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& t : threads_) {
    if (!t->CpuWithinWall()) return false;
  }
  return true;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind,parent,role,thread,start_ns,end_ns\n");
  for (const auto& t : threads_) {
    for (const SpanEvent& e : t->events()) {
      std::fprintf(f, "%s,%s,%s,%d,%lld,%lld\n",
                   SpanName(static_cast<Span>(e.kind)),
                   e.parent < 0 ? "" : SpanName(static_cast<Span>(e.parent)),
                   RoleName(t->role()), e.thread,
                   static_cast<long long>(e.start_ns),
                   static_cast<long long>(e.end_ns));
    }
    if (t->events_dropped() > 0) {
      std::fprintf(f, "# thread %d dropped %llu events past the cap\n",
                   t->index(),
                   static_cast<unsigned long long>(t->events_dropped()));
    }
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, Role role, Span kind, uint64_t items)
    : trace_(&tracer->Current(role)),
      kind_(kind),
      items_(items),
      parent_(trace_->open),
      start_ns_(WallNs()) {
  trace_->open = static_cast<int16_t>(kind);
}

ScopedSpan::~ScopedSpan() {
  trace_->open = parent_;
  trace_->Record(kind_, start_ns_, WallNs(), items_);
}

void TracedSite::OnItem(const dwrs::Item& item) {
  ScopedSpan span(tracer_, Role::kWorker, Span::kSiteOnItems, 1);
  inner_->OnItem(item);
}

void TracedSite::OnItems(const dwrs::Item* items, size_t n) {
  ScopedSpan span(tracer_, Role::kWorker, Span::kSiteOnItems, n);
  inner_->OnItems(items, n);
}

void TracedSite::OnMessage(const dwrs::sim::Payload& msg) {
  ScopedSpan span(tracer_, Role::kWorker, Span::kSiteOnMessage);
  inner_->OnMessage(msg);
}

void TracedCoordinator::OnMessage(int site, const dwrs::sim::Payload& msg) {
  ScopedSpan span(tracer_, Role::kCoordinator, Span::kCoordOnMessage);
  inner_->OnMessage(site, msg);
}

void TracedTransport::SendToCoordinator(int site,
                                        const dwrs::sim::Payload& msg) {
  ScopedSpan span(tracer_, Role::kWorker, Span::kUpstreamSend);
  inner_->SendToCoordinator(site, msg);
}

}  // namespace perfbench
