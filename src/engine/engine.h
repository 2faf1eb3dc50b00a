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
//   // build endpoints against eng.transport(), then:
//   for (int i = 0; i < k; ++i) eng.AttachSite(i, sites[i]);
//   eng.AttachCoordinator(&coord);
//   eng.Run(workload);          // batched, pipelined; quiescent on return
//   auto sample = coord.Sample();  // legal: Run ends at a quiesce point
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
// Flush — and with it Run, which flushes at the end and,
// step-synchronously (an on_step hook or config().step_synchronous),
// after every event — may execute site endpoint callbacks itself. Such a
// callback runs exactly as it would on a pool worker: one at a time per
// site, under the same happens-before edges. It must therefore never
// wait for the feeder.
//
// Teardown: endpoints are non-owned and worker threads call into them,
// so an endpoint must never be destroyed while the engine is running
// non-quiescently. Safe patterns: (a) let Run()/Flush() return (the
// engine is quiescent; parked workers touch no endpoint again), (b) call
// Shutdown() before the endpoints go out of scope, or (c) declare the
// endpoints before the Engine so the Engine — which joins its workers in
// its destructor — dies first. Destroying endpoints below a mid-stream
// engine is a use-after-free on the worker threads.
//
// Tickers (sim::Runtime::AttachTicker) are not supported: OnRound models
// the synchronous round structure of the paper, which a pipelined engine
// deliberately gives up. Time-driven protocols (sliding window) stay on
// the simulator backend.

#ifndef DWRS_ENGINE_ENGINE_H_
#define DWRS_ENGINE_ENGINE_H_

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

class Engine : public sim::Transport {
 public:
  explicit Engine(const EngineConfig& config);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // The transport endpoints are constructed against (mirrors
  // sim::Runtime::network()).
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
  // invokes after every processed message (before the message's
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
  // query mode, mirroring sim::Runtime::Run. With config().step_synchronous
  // the same pacing applies even without a hook.
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
  void WaitQuiesce();
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
  std::atomic<uint64_t> steps_{0};
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace dwrs::engine

#endif  // DWRS_ENGINE_ENGINE_H_
