// The coordinator thread. Consumes the bounded MPSC message channel fed
// by all site workers and is the only thread that ever invokes the
// attached CoordinatorNode, so coordinator endpoints (whose hot path is
// the paper's O(log s) heap update) stay lock-free. Downstream sends the
// endpoint performs from OnMessage are routed to the site workers'
// control channels by the engine transport.
//
// Backpressure: the bounded inbox blocks a sending site worker when the
// coordinator falls behind; the stalled site stops draining its item
// queue, which eventually blocks the feeder — end-to-end flow control.
//
// Snapshot publication: an optional hook runs on this thread once per
// drain pass — after the pass's messages (at most queue_capacity of them)
// are processed and BEFORE the pass's done-counter increment. The
// ordering matters: a quiesce waiter observes pushed == done only after
// the hook for the final pass has returned, so at any quiesce point the
// last published snapshot is the fully-drained coordinator state — the
// edge the live-query layer's step-synchronous equivalence rests on.
// Every invocation sees the coordinator at a shard-local quiesce point
// of its delivered-message prefix (the endpoint is between OnMessage
// calls), which is what makes the published snapshots valid query
// states mid-stream. A pass drains whatever is queued, so a burst of
// messages pays one publish; a step-synchronous step that sends at most
// one message is one pass, so its publish history is per message.

#ifndef DWRS_ENGINE_COORDINATOR_WORKER_H_
#define DWRS_ENGINE_COORDINATOR_WORKER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "engine/channels.h"
#include "sim/node.h"

namespace dwrs::engine {

class CoordinatorWorker {
 public:
  // `trace_shard` labels this worker's flight-recorder events.
  CoordinatorWorker(sim::CoordinatorNode* node, size_t queue_capacity,
                    QuiesceBus* bus, int trace_shard = 0);
  ~CoordinatorWorker();

  CoordinatorWorker(const CoordinatorWorker&) = delete;
  CoordinatorWorker& operator=(const CoordinatorWorker&) = delete;

  // Installs the per-pass snapshot hook (see the header comment).
  // Must be called before Start().
  void SetSnapshotHook(std::function<void()> hook) {
    DWRS_CHECK(!thread_.joinable()) << " set the hook before Start()";
    snapshot_hook_ = std::move(hook);
  }

  void Start();
  void RequestStop();
  void Join();

  // Site worker side (multi-producer). Blocks while the inbox is full.
  void PushMessage(int site, const sim::Payload& msg,
                   std::atomic<uint64_t>* stall_counter);

  bool Idle() const { return done_.load() == pushed_.load(); }
  uint64_t units_pushed() const { return pushed_.load(); }

 private:
  struct UpstreamMessage {
    int site = 0;
    sim::Payload msg;
  };

  void ThreadMain();
  bool DrainOnce();
  void Wake();

  sim::CoordinatorNode* const node_;
  QuiesceBus* const bus_;
  const size_t queue_capacity_;
  const int trace_shard_;
  std::function<void()> snapshot_hook_;  // coordinator thread only
  Channel<UpstreamMessage> inbox_;

  std::atomic<uint64_t> pushed_{0};
  std::atomic<uint64_t> done_{0};

  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<bool> closed_{false};
  std::thread thread_;
};

}  // namespace dwrs::engine

#endif  // DWRS_ENGINE_COORDINATOR_WORKER_H_
