// The concurrent execution engine: the production-oriented counterpart of
// the step-synchronous sim::Runtime. Sites are *logical*: each is a unit
// of per-site state (bounded SPSC queue of ingestion batches + control
// inbox) multiplexed over a fixed work-stealing worker pool (see
// scheduler.h), so k is bounded by memory, not by thread count; protocol
// messages flow to a dedicated coordinator thread over a bounded MPSC
// channel with end-to-end backpressure; coordinator->site control traffic
// returns over per-site channels. Endpoints implement the same
// sim::SiteNode / sim::CoordinatorNode / sim::Transport interfaces as
// under the simulator (sim/node.h), so WsworSite/WsworCoordinator, the
// naive baseline, and the unweighted substrate run unmodified on either
// backend.
//
//   engine::Engine eng({.num_sites = k});
//   auto endpoints = sim::Deploy(eng, seed, make_site, make_coordinator);
//   eng.Run(workload);          // batched, pipelined; quiescent on return
//   endpoints.coordinator->Sample();  // legal: Run ends at a quiesce point
//
// Querying endpoints is legal exactly at quiesce points — after Run() or
// Flush() returns, or inside a Run() on_step hook (which forces
// step-synchronous execution). The quiesce handshake establishes the
// happens-before edge that makes worker-thread writes visible to the
// caller; see the threading contract in core/coordinator.h.
//
// Ingestion (Push/Run/Flush) is single-threaded by contract: the calling
// thread is the feeder and the single producer of every item queue.
// Flush runs queued sites on the calling thread before it waits
// (caller-runs dispatch, see engine/scheduler.h), so the thread calling
// Flush — and with it Run, which flushes at the end and, given an
// on_step hook, after every event — may execute site endpoint callbacks
// itself. Such a callback runs exactly as it would on a pool worker: one
// at a time per site, under the same happens-before edges. It must
// therefore never wait for the feeder.
//
// Teardown: endpoints are non-owned and worker threads call into them,
// so an endpoint must never be destroyed while the engine is running
// non-quiescently. Safe patterns: (a) let Run()/Flush() return (the
// engine is quiescent; parked workers touch no endpoint again), (b) call
// Shutdown() before the endpoints go out of scope — the endpoints
// sim::Deploy returns do so themselves (sim/deployment.h) — or (c)
// declare the endpoints before the Engine so the Engine — which joins
// its workers in its destructor — dies first. Destroying endpoints below
// a mid-stream engine is a use-after-free on the worker threads.
//
// Tickers (sim::Runtime::AttachTicker) are not supported: OnRound models
// the synchronous round structure of the paper, which a pipelined engine
// deliberately gives up. Time-driven protocols (sliding window) stay on
// the simulator backend.

#ifndef DWRS_ENGINE_ENGINE_H_
#define DWRS_ENGINE_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/channels.h"
#include "engine/config.h"
#include "engine/coordinator_worker.h"
#include "engine/scheduler.h"
#include "engine/stats.h"
#include "sim/node.h"
#include "stream/item.h"
#include "stream/workload.h"

namespace dwrs::engine {

// Run's quiesce pacing rule, one copy for Engine and ShardedEngine:
// multiplicative backoff on measured waste (cf. Jacobson, "Congestion
// Avoidance and Control", SIGCOMM 1988). Feeder thread only.
class QuiescePacer {
 public:
  // Events to feed before the next paced quiesce.
  uint64_t interval() const { return interval_; }

  // Called at a paced quiesce with the cumulative wasted-message count;
  // halves the interval (floor 1) if it grew since the last call, else
  // doubles it (saturating). Returns the new interval.
  uint64_t Next(uint64_t wasted) {
    if (wasted > last_wasted_) {
      interval_ = std::max<uint64_t>(1, interval_ / 2);
    } else {
      interval_ = std::min(2 * interval_, kMaxInterval);
    }
    last_wasted_ = wasted;
    return interval_;
  }

 private:
  static constexpr uint64_t kMaxInterval = uint64_t{1} << 62;
  uint64_t interval_ = 1;
  uint64_t last_wasted_ = 0;
};

class Engine : public sim::Transport {
 public:
  explicit Engine(const EngineConfig& config);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // The transport endpoints are constructed against (mirrors
  // sim::Runtime::transport()).
  sim::Transport& transport() { return *this; }
  int num_sites() const { return config_.num_sites; }
  // Resolved size of the scheduler's worker pool (config().num_workers
  // with 0 = auto resolved; see EngineConfig).
  int num_workers() const {
    return Scheduler::ResolveWorkerCount(config_.num_workers,
                                         config_.num_sites);
  }
  const EngineConfig& config() const { return config_; }
  const EngineStats& stats() const { return stats_; }
  // For attached instrumentation that accounts work it performs on this
  // engine's threads (the snapshot hook counting its publishes); the
  // counters are atomics, so any thread may increment.
  EngineStats& stats_mutable() { return stats_; }

  // Non-owning; endpoints must outlive the engine. All sites and the
  // coordinator must be attached before the first Push/Run/Flush.
  void AttachSite(int site, sim::SiteNode* node);
  void AttachCoordinator(sim::CoordinatorNode* node);

  // Installs a snapshot-publication hook that the coordinator thread
  // invokes once per drain pass (after the pass's messages, before its
  // done-counter increment; see engine/coordinator_worker.h). The hook
  // may read the attached coordinator endpoint and this engine's stats —
  // it runs on the one thread that owns the endpoint — and must publish
  // through a mechanism readers can consume lock-free (the intended one
  // is query::SnapshotPublisher). Must be installed before the first
  // Push/Run/Flush.
  void SetSnapshotHook(std::function<void()> hook);

  // Feeds one event into the site's current ingestion batch; hands the
  // batch to the site worker every config().batch_size items (blocking
  // when the site's queue is full). Feeder thread only.
  void Push(int site, const Item& item);

  // Span ingestion: appends `n` items for `site` in whole-batch copies —
  // the zero-per-item-overhead feeder path (batch buffers are recycled
  // through a free list, so steady-state ingestion performs no heap
  // allocation at all). Feeder thread only.
  void Push(int site, const Item* items, size_t n);

  // Hands off all partial batches and blocks until the engine is fully
  // quiescent: all item queues drained, all messages processed, no
  // endpoint callback running. On return, querying endpoints is legal.
  // The hand-off wakes no pool worker: this thread runs the queued
  // sites itself, wakes the pool only if something is still queued, and
  // then waits.
  void Flush();

  // Runs the full workload and ends with Flush(). If `on_step` is set the
  // run is step-synchronous: the engine quiesces after every event and
  // invokes the hook with the 1-based prefix length — the continuous-
  // query mode, mirroring sim::Runtime::Run. The execution is then
  // bit-identical to sim::Runtime with zero delivery delay (the same
  // endpoint callbacks in the same order with the same RNG draws); the
  // equivalence tests pass a no-op hook to get exactly that.
  //
  // Otherwise the run is pipelined and paced: it quiesces every
  // interval() events of a QuiescePacer that persists across Run calls
  // (the interval starts at 1 on a fresh engine, halves when the
  // coordinator's wasted_messages() grew since the last paced quiesce,
  // and doubles when it did not). While the protocol's thresholds move,
  // sites that outrun the coordinator send on superseded control state;
  // the quiesces deliver the broadcasts before that waste piles up, which
  // holds the message count near the simulator's. Once the thresholds
  // settle the interval outgrows the stream, so a stream without waste
  // (the naive protocol) quiesces floor(log2(n + 1)) + 1 times on a
  // fresh engine. Push and Flush never pace.
  void Run(const Workload& workload,
           const std::function<void(uint64_t)>& on_step = nullptr);

  // Stops and joins all worker threads (idempotent; the destructor calls
  // it). Pending un-flushed work may be dropped; call Flush() first for a
  // clean end of stream.
  void Shutdown();

  // --- sim::Transport (called from endpoint callbacks) ----------------
  void SendToCoordinator(int site, const sim::Payload& msg) override;
  void SendToSite(int site, const sim::Payload& msg) override;
  void Broadcast(const sim::Payload& msg) override;
  // Events handed off to workers so far. Runs ahead of any individual
  // endpoint's progress by at most the queued batches (exact at quiesce
  // points and in step-synchronous mode).
  uint64_t step() const override {
    return steps_.load(std::memory_order_relaxed);
  }

 private:
  void Start();
  // The per-item append Push and Run's loop share, defined here so it
  // inlines into Run's loop: only the per-batch hand-off is a call.
  void Append(int site, const Item& item) {
    ItemBatch& batch = pending_[static_cast<size_t>(site)];
    batch.push_back(item);
    if (batch.size() >= config_.batch_size) HandOffBatch(site);
  }
  // `wake` false queues the site without waking a pool worker (Flush's
  // caller-runs hand-off).
  void HandOffBatch(int site, bool wake = true);
  void RefillPending(int site);
  void CollectSiteCounters();
  // The two halves of a quiesce. HandOffAll hands every partial batch to
  // the scheduler; with `caller_runs` this thread then runs the queued
  // sites itself instead of waking a pool worker. WaitQuiesce blocks
  // until the engine is quiescent and folds the coordinator's waste.
  // Flush adds the O(k) fold of every site's hot-path counters; Run's
  // paced quiesces, and ShardedEngine's (hence the friend), skip it, so
  // a paced quiesce does not visit each of up to 10^5 site endpoints.
  void HandOffAll(bool caller_runs);
  void WaitQuiesce();
  friend class ShardedEngine;
  bool AllIdle() const;
  uint64_t TotalUnitsPushed() const;
  void Account(const sim::Payload& msg, bool upstream);

  const EngineConfig config_;
  EngineStats stats_;
  QuiesceBus bus_;

  std::vector<sim::SiteNode*> site_nodes_;
  sim::CoordinatorNode* coordinator_node_ = nullptr;
  std::function<void()> snapshot_hook_;

  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<CoordinatorWorker> coordinator_worker_;

  std::vector<ItemBatch> pending_;  // per-site ingestion buffers
  QuiescePacer pacer_;              // Run's quiesce interval
  std::atomic<uint64_t> steps_{0};
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace dwrs::engine

#endif  // DWRS_ENGINE_ENGINE_H_
