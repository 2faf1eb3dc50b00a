#include "engine/scheduler.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "util/check.h"

namespace dwrs::engine {

int Scheduler::ResolveWorkerCount(int num_workers, int num_sites) {
  if (num_workers > 0) return num_workers;
  // Auto: leave headroom for the feeder and coordinator threads, and
  // never spawn more workers than there are sites to run.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int budget = std::max(hw - 2, 1);
  return std::max(1, std::min(budget, num_sites));
}

Scheduler::Scheduler(const EngineConfig& config, QuiesceBus* bus,
                     EngineStats* stats)
    : control_poll_stride_(config.control_poll_stride),
      dispatch_quantum_(config.item_queue_batches),
      trace_shard_(config.trace_shard),
      bus_(bus),
      stats_(stats) {
  DWRS_CHECK(bus != nullptr);
  DWRS_CHECK(stats != nullptr);
  DWRS_CHECK_GT(config.num_sites, 0);
  DWRS_CHECK_GT(config.item_queue_batches, 0u);
  DWRS_CHECK_GT(config.control_poll_stride, 0u);
  DWRS_CHECK_GE(config.num_workers, 0);
  sites_.resize(static_cast<size_t>(config.num_sites));
  const int n = ResolveWorkerCount(config.num_workers, config.num_sites);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) workers_.push_back(std::make_unique<Worker>());
}

Scheduler::~Scheduler() {
  RequestStop();
  Join();
}

void Scheduler::AttachSite(int site, sim::SiteNode* node) {
  DWRS_CHECK(site >= 0 && site < static_cast<int>(sites_.size()));
  DWRS_CHECK(node != nullptr);
  DWRS_CHECK(!started_) << " attach before Start()";
  sites_[static_cast<size_t>(site)] = std::make_unique<LogicalSite>(
      node, site, /*queue_batches=*/dispatch_quantum_);
}

void Scheduler::Start() {
  DWRS_CHECK(!started_);
  for (size_t i = 0; i < sites_.size(); ++i) {
    DWRS_CHECK(sites_[i] != nullptr) << " site " << i << " not attached";
  }
  started_ = true;
  for (size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread =
        std::thread([this, i] { WorkerMain(static_cast<int>(i)); });
  }
}

void Scheduler::RequestStop() {
  closed_.store(true);
  for (auto& site : sites_) {
    if (site != nullptr) site->control.Close();
  }
  {
    std::lock_guard<std::mutex> lock(space_mutex_);
    space_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    park_cv_.notify_all();
  }
}

void Scheduler::Join() {
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void Scheduler::Enqueue(LogicalSite* site, int worker, bool wake) {
  Worker& w = *workers_[static_cast<size_t>(worker)];
  {
    std::lock_guard<std::mutex> lock(w.mutex);
    w.queue.push_back(site);
  }
  // Counted after the push so a waker that sees the hint always finds the
  // site (the reverse order would let a woken worker scan, find nothing,
  // and spin until the push lands).
  ready_.fetch_add(1);
  if (wake) WakeWorkers();
}

void Scheduler::WakeWorkers() {
  // Any worker can serve any runnable site.
  std::lock_guard<std::mutex> lock(park_mutex_);
  park_cv_.notify_one();
}

void Scheduler::NotifySite(LogicalSite* site, bool wake) {
  // The producer-side edge of the state machine (see scheduler.h). Every
  // branch performs the CAS — including the "unchanged" ones — because
  // the RMW's release write is what publishes this producer's queue push
  // to the worker that later observes the state.
  uint32_t cur = site->sched.load(std::memory_order_relaxed);
  for (;;) {
    uint32_t next;
    switch (cur) {
      case kSiteIdle: next = kSiteQueued; break;
      case kSiteRunning: next = kSiteNotified; break;
      default: next = cur; break;  // kSiteQueued, kSiteNotified
    }
    if (site->sched.compare_exchange_weak(cur, next,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
      if (cur == kSiteIdle) Enqueue(site, Home(*site), wake);
      return;
    }
  }
}

void Scheduler::PushBatch(int site, ItemBatch&& batch,
                          std::atomic<uint64_t>* stall_counter, bool wake) {
  DWRS_CHECK(!batch.empty());
  LogicalSite& s = *sites_[static_cast<size_t>(site)];
  // pushed is incremented before the enqueue so a batch is never
  // invisible to the quiesce check while in flight.
  units_pushed_.fetch_add(1);
  if (!s.items.TryPush(batch)) {
    // One blocking episode, one stall count — however many times the
    // condvar wakes us before a slot frees up.
    if (stall_counter != nullptr) {
      stall_counter->fetch_add(1, std::memory_order_relaxed);
    }
    if (obs::TracingEnabled()) {
      obs::TraceEvent event;
      event.type = obs::EventType::kIngestStall;
      event.shard = static_cast<int16_t>(trace_shard_);
      event.site = site;
      event.a = batch.size();
      obs::Emit(event);
    }
    std::unique_lock<std::mutex> lock(space_mutex_);
    while (!s.items.TryPush(batch)) {
      if (closed_.load()) {
        // Shutting down mid-stream: the batch is dropped, visibly.
        units_pushed_.fetch_sub(1);
        stats_->batches_dropped_on_shutdown.fetch_add(
            1, std::memory_order_relaxed);
        return;
      }
      space_cv_.wait(lock);
    }
  }
  NotifySite(&s, wake);
}

void Scheduler::PushControl(int site, const sim::Payload& msg) {
  LogicalSite& s = *sites_[static_cast<size_t>(site)];
  units_pushed_.fetch_add(1);
  if (!s.control.Push(msg)) {  // closed during shutdown
    units_pushed_.fetch_sub(1);
    return;
  }
  NotifySite(&s, /*wake=*/true);
}

LogicalSite* Scheduler::DequeueLocal(Worker& me) {
  std::lock_guard<std::mutex> lock(me.mutex);
  if (me.queue.empty()) return nullptr;
  LogicalSite* site = me.queue.front();
  me.queue.pop_front();
  ready_.fetch_sub(1);
  return site;
}

LogicalSite* Scheduler::Steal(int thief) {
  const int n = num_workers();
  for (int i = 1; i < n; ++i) {
    Worker& victim = *workers_[static_cast<size_t>((thief + i) % n)];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.queue.empty()) continue;
    // Steal from the back: the opposite end from the victim's own pops,
    // and the site coldest in the victim's cache.
    LogicalSite* site = victim.queue.back();
    victim.queue.pop_back();
    ready_.fetch_sub(1);
    stats_->steals.fetch_add(1, std::memory_order_relaxed);
    if (obs::TracingEnabled()) {
      obs::TraceEvent event;
      event.type = obs::EventType::kSteal;
      event.shard = static_cast<int16_t>(trace_shard_);
      event.site = site->site;
      event.a = static_cast<uint64_t>(thief);
      obs::Emit(event);
    }
    return site;
  }
  return nullptr;
}

void Scheduler::DrainControl(LogicalSite* site) {
  if (site->control.SizeApprox() == 0) return;  // the per-span fast path
  sim::Payload msg;
  bool did_work = false;
  while (site->control.TryPop(&msg)) {
    site->node->OnMessage(msg);
    units_done_.fetch_add(1);
    did_work = true;
  }
  if (did_work) bus_->NotifyProgress();
}

void Scheduler::ProcessBatch(LogicalSite* site, ItemBatch& batch) {
  // A ring slot just freed up; unblock the feeder before the batch is
  // processed so ingestion overlaps with site work. Unconditional (the
  // notify is skipped only when nobody waits, which the condvar handles):
  // a cheaper "only if the ring was full" check would race the feeder's
  // full-test and strand it.
  {
    std::lock_guard<std::mutex> lock(space_mutex_);
    space_cv_.notify_all();
  }
  // Hand the batch to the endpoint's span path in control_poll_stride
  // sub-batches, applying control traffic between them: fresher
  // thresholds still suppress sends promptly (message counts stay near
  // the step-synchronous ideal) while the endpoint's hot loop runs whole
  // spans with every loop-invariant hoisted and zero synchronization.
  const Item* data = batch.data();
  const size_t total = batch.size();
  const bool tracing = obs::TracingEnabled();
  std::chrono::steady_clock::time_point span_start;
  if (tracing) span_start = std::chrono::steady_clock::now();
  for (size_t done = 0; done < total;) {
    DrainControl(site);
    const size_t chunk = std::min(control_poll_stride_, total - done);
    site->node->OnItems(data + done, chunk);
    done += chunk;
  }
  if (tracing) {
    const auto span_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - span_start)
                             .count();
    obs::TraceEvent event;
    event.type = obs::EventType::kItemSpan;
    event.shard = static_cast<int16_t>(trace_shard_);
    event.site = site->site;
    event.a = total;  // items in the batch
    event.dur_ns =
        span_ns > 0
            ? static_cast<uint32_t>(std::min<int64_t>(span_ns, UINT32_MAX))
            : 1;
    obs::Emit(event);
  }
  // Return the drained buffer (capacity intact) to the feeder's free
  // list; if the list is momentarily full the buffer simply deallocates.
  batch.clear();
  if (site->recycled.TryPush(batch)) {
    stats_->batches_recycled.fetch_add(1, std::memory_order_relaxed);
  }
  units_done_.fetch_add(1);
  bus_->NotifyProgress();
}

void Scheduler::RunSite(int worker, LogicalSite* site) {
  // Take the site. acq_rel: the acquire side pairs with the enqueueing
  // producer's release RMW (its pushes are visible), the release side
  // hands our own drains to whoever observes kSiteRunning.
  const uint32_t prev =
      site->sched.exchange(kSiteRunning, std::memory_order_acq_rel);
  DWRS_CHECK_EQ(prev, static_cast<uint32_t>(kSiteQueued));
  stats_->sites_scheduled.fetch_add(1, std::memory_order_relaxed);
  if (obs::TracingEnabled()) {
    obs::TraceEvent event;
    event.type = obs::EventType::kSiteScheduled;
    event.shard = static_cast<int16_t>(trace_shard_);
    event.site = site->site;
    event.a = static_cast<uint64_t>(worker);
    obs::Emit(event);
  }
  size_t batches_run = 0;
  ItemBatch batch;
  for (;;) {
    DrainControl(site);
    while (batches_run < dispatch_quantum_ && site->items.TryPop(&batch)) {
      ProcessBatch(site, batch);
      ++batches_run;
    }
    if (batches_run >= dispatch_quantum_ && site->HasWork()) {
      // Quantum exhausted with work left: requeue on our own queue (the
      // home queue for the caller-runs thread) and yield so a hot site
      // cannot starve its siblings. The release half of the exchange
      // hands the ring consumer role to the next dispatcher (which takes
      // the site with an acquire exchange); being an RMW, it also keeps
      // a notification that raced in on the chain that dispatcher reads.
      site->sched.exchange(kSiteQueued, std::memory_order_acq_rel);
      Enqueue(site, worker < num_workers() ? worker : Home(*site),
              /*wake=*/true);
      return;
    }
    // Drained everything we can see; try to go idle. A failure means a
    // producer raced in a notification — the acquire on the failure load
    // pairs with its release RMW, making its pushes visible to the
    // re-drain.
    uint32_t expected = kSiteRunning;
    if (site->sched.compare_exchange_strong(expected, kSiteIdle,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      return;
    }
    // Take the site back with an RMW, not a plain store. A store could
    // sit in the store buffer while the re-drain's ring loads run ahead
    // of it; a producer pushing in that window would see kNotified, leave
    // it, and have its notification overwritten by our kRunning while
    // the re-drain misses its batch — the site would go idle with a
    // nonempty ring and the quiesce wait would never end.
    site->sched.exchange(kSiteRunning, std::memory_order_acq_rel);
  }
}

void Scheduler::RunQueuedSites() {
  const int caller = num_workers();
  uint64_t dispatches = 0;
  for (bool found = true; found;) {
    found = false;
    for (auto& worker : workers_) {
      LogicalSite* site = DequeueLocal(*worker);
      if (site == nullptr) continue;
      RunSite(caller, site);
      ++dispatches;
      found = true;
    }
  }
  stats_->flush_dispatches.fetch_add(dispatches, std::memory_order_relaxed);
  // Never leave a site queued with nobody woken for it: the engine's
  // quiesce wait sleeps until a pool worker reports progress.
  if (ready_.load() > 0) WakeWorkers();
}

void Scheduler::WorkerMain(int worker) {
  Worker& me = *workers_[static_cast<size_t>(worker)];
  for (;;) {
    LogicalSite* site = DequeueLocal(me);
    if (site == nullptr) site = Steal(worker);
    if (site != nullptr) {
      RunSite(worker, site);
      continue;
    }
    std::unique_lock<std::mutex> lock(park_mutex_);
    if (closed_.load()) break;
    // Recheck under the park mutex: a producer that enqueued after our
    // scan either sees its ready hint here or its notify blocks on the
    // mutex until we release it in wait().
    if (ready_.load() > 0) continue;
    stats_->worker_parks.fetch_add(1, std::memory_order_relaxed);
    if (obs::TracingEnabled()) {
      obs::TraceEvent event;
      event.type = obs::EventType::kWorkerPark;
      event.shard = static_cast<int16_t>(trace_shard_);
      event.a = static_cast<uint64_t>(worker);
      obs::Emit(event);
    }
    park_cv_.wait(lock);
  }
}

}  // namespace dwrs::engine
