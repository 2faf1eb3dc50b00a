// Work-stealing scheduler: a fixed pool of N worker threads multiplexing
// k logical sites (see logical_site.h), replacing the engine's old
// thread-per-site design so one box runs k = 10^5..10^6 sites.
//
// Shape (after Hyrise's node-queue scheduler): every worker owns a run
// queue of runnable LogicalSites; a site is homed to worker (site mod N)
// so its cache state tends to stay put; a worker whose own queue is dry
// steals from the back of a victim's queue; idle workers park on one
// shared bus. A dispatched site is drained (control messages first, then
// item batches in control_poll_stride sub-spans) for at most a quantum of
// item_queue_batches batches before being requeued, so one hot site
// cannot starve the rest of its home queue.
//
// Scheduling state machine (LogicalSite::sched, values in
// logical_site.h): producers notify a site with an unconditional
// compare-exchange loop —
//
//   kIdle    -> kQueued    (the notifier enqueues the site)
//   kRunning -> kNotified  (the running thread re-drains before idling)
//   kQueued, kNotified     unchanged — but written back anyway, because
//                          the RMW is the point: it reads the latest
//                          value in modification order and its release
//                          write is what publishes the producer's queue
//                          push to the thread that eventually observes
//                          the state.
//
// The dispatching thread takes a site with exchange(kRunning, acq_rel)
// and leaves with compare_exchange(kRunning -> kIdle); a failure means a
// notification raced in, and the failure load's acquire ordering makes
// the racing producer's pushes visible for the re-drain. Because every
// write to the word is an RMW — the producers' CAS loop and every
// dispatcher transition (exchange to kRunning or kQueued, CAS to kIdle)
// — and the dispatcher never goes idle without winning that CAS, no
// notification can be lost to store-buffer reordering: the classic
// "store, then recheck the queues" lost-wakeup race has no analogue
// here. A single plain store (say, of kRunning after a failed idle CAS)
// would bring it back. The same chain of RMWs hands the
// SPSC rings' consumer role from thread to thread with a happens-before
// edge, so the single-threaded endpoint contract of sim/node.h holds
// even though consecutive dispatches of one site may run on different
// threads.
//
// Caller-runs dispatch (RunQueuedSites, Engine::Flush's path): the
// thread about to wait for quiescence queues its partial batches without
// waking a pool worker and then runs the queued sites itself — dequeued
// under the run-queue mutex and taken with the same exchange a stealing
// worker uses — until no run queue holds a site. A step-synchronous step
// whose items send no message then costs no futex wake and no context
// switch: the feeder hands the item to itself.
//
// Quiesce accounting is aggregate: one pushed counter incremented before
// any unit (item batch or control message) is enqueued, one done counter
// incremented only after the endpoint callback — including the sends it
// performed — returned. Per-site counters would make the engine's
// double-scan quiesce check an O(k) walk per progress event, which at
// k = 10^5 dominates the run; two scheduler-global atomics keep it O(1)
// with the identical invariant.

#ifndef DWRS_ENGINE_SCHEDULER_H_
#define DWRS_ENGINE_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/config.h"
#include "engine/logical_site.h"
#include "engine/stats.h"
#include "sim/node.h"

namespace dwrs::engine {

class Scheduler {
 public:
  // Resolves config.num_workers: 0 means auto — hardware_concurrency
  // minus two (feeder + coordinator threads), clamped to [1, num_sites].
  // Exposed so ShardedEngine can split one auto budget across shards.
  static int ResolveWorkerCount(int num_workers, int num_sites);

  Scheduler(const EngineConfig& config, QuiesceBus* bus, EngineStats* stats);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Non-owning; all sites must be attached before Start().
  void AttachSite(int site, sim::SiteNode* node);

  void Start();
  // Closes every control channel and wakes everything (parked workers,
  // a feeder blocked on a full ring). Workers finish draining what is
  // already runnable, then exit; Join() reaps them.
  void RequestStop();
  void Join();

  // Feeder side (single producer per site, one feeder thread overall).
  // Blocks while the site's item ring is full — the engine's ingestion
  // backpressure. Counts blocking episodes in `stall_counter`. A stop
  // request mid-wait drops the batch and counts it in
  // stats->batches_dropped_on_shutdown. With `wake` false a site this
  // push makes runnable is queued without waking a pool worker; the
  // caller must then call RunQueuedSites before it waits on the engine.
  void PushBatch(int site, ItemBatch&& batch,
                 std::atomic<uint64_t>* stall_counter, bool wake = true);

  // Caller-runs dispatch (see the header comment): runs queued sites on
  // the calling thread until no run queue holds one, then wakes the pool
  // if anything is still queued. Each dispatch counts in
  // stats->flush_dispatches and traces as worker num_workers(). Feeder
  // thread only.
  void RunQueuedSites();

  // Coordinator side. Never blocks (control channels are unbounded to
  // break the site⇄coordinator wait cycle; see channels.h).
  void PushControl(int site, const sim::Payload& msg);

  // Feeder side: pops a recycled (empty, capacity-retaining) batch buffer
  // off the site's free list; false on a cold start (feeder allocates).
  bool TryGetRecycled(int site, ItemBatch* out) {
    return sites_[static_cast<size_t>(site)]->recycled.TryPop(out);
  }

  // True iff every pushed unit has been fully processed. With the
  // engine's double-scan this yields the same quiesce guarantee as the
  // old per-site counters (see the header comment).
  bool Idle() const {
    return units_done_.load() == units_pushed_.load();
  }
  // Monotone work-creation counter for the double-scan quiesce check.
  uint64_t units_pushed() const { return units_pushed_.load(); }

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  // One worker thread's scheduling state. The queue holds sites in state
  // kQueued.
  struct Worker {
    std::mutex mutex;
    std::deque<LogicalSite*> queue;  // front: own pops; back: steals
    std::thread thread;
  };

  void WorkerMain(int worker);
  LogicalSite* DequeueLocal(Worker& me);
  LogicalSite* Steal(int thief);
  // `worker` is the pool index, or num_workers() for the caller-runs
  // thread (which has no run queue of its own).
  void RunSite(int worker, LogicalSite* site);
  void DrainControl(LogicalSite* site);
  void ProcessBatch(LogicalSite* site, ItemBatch& batch);
  void NotifySite(LogicalSite* site, bool wake);
  void Enqueue(LogicalSite* site, int worker, bool wake);
  void WakeWorkers();
  int Home(const LogicalSite& site) const { return site.site % num_workers(); }

  const size_t control_poll_stride_;
  const size_t dispatch_quantum_;  // batches per dispatch before requeue
  const int trace_shard_;
  QuiesceBus* const bus_;
  EngineStats* const stats_;

  std::vector<std::unique_ptr<LogicalSite>> sites_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Aggregate quiesce counters (see the header comment).
  std::atomic<uint64_t> units_pushed_{0};
  std::atomic<uint64_t> units_done_{0};

  // Runnable-site hint for the park predicate: incremented after an
  // enqueue, decremented after a dequeue/steal, so > 0 whenever some
  // queue is certainly nonempty (transiently negative while a pop races
  // its producer's increment — harmless, the predicate only asks
  // "certainly nonempty?").
  std::atomic<int64_t> ready_{0};

  std::mutex park_mutex_;  // idle workers park here (the shared bus)
  std::condition_variable park_cv_;
  std::mutex space_mutex_;  // the feeder parks here when a ring is full
  std::condition_variable space_cv_;
  std::atomic<bool> closed_{false};
  bool started_ = false;
};

}  // namespace dwrs::engine

#endif  // DWRS_ENGINE_SCHEDULER_H_
