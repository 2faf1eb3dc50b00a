// A logical site: the per-site state the work-stealing scheduler
// multiplexes over its fixed worker pool. Where the old engine spawned
// one OS thread per site (capping the system at roughly one site per
// core), a LogicalSite is just data — an SPSC ring of ingestion batches,
// a control inbox, a free list of recycled batch buffers, and one atomic
// scheduling word — so a single box can host 10^5..10^6 of them.
//
// Scheduling protocol (the full state machine lives in scheduler.h):
// `sched` moves through kIdle -> kQueued -> kRunning (-> kNotified ->
// kRunning...) -> kIdle. Producers notify via an unconditional RMW on
// `sched`, which both prevents double-enqueueing and carries the
// happens-before edge that makes a producer's ring/inbox writes visible
// to whichever thread runs the site next (a pool worker, or the flushing
// thread under caller-runs dispatch) — the single-threaded endpoint
// contract of sim/node.h holds even though consecutive dispatches of one
// site may land on different threads.

#ifndef DWRS_ENGINE_LOGICAL_SITE_H_
#define DWRS_ENGINE_LOGICAL_SITE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "engine/channels.h"
#include "sim/node.h"
#include "stream/item.h"

namespace dwrs::engine {

using ItemBatch = std::vector<Item>;

// Values of LogicalSite::sched. Transitions:
//   producers (feeder / coordinator thread / other workers):
//     kIdle    -> kQueued    enqueue on the home worker's run queue
//     kRunning -> kNotified  the running thread re-drains before idling
//     kQueued / kNotified    unchanged (still an RMW: the write is what
//                            publishes the producer's queue pushes to the
//                            next dispatching thread)
//   the dispatching thread (pool worker or caller-runs flusher):
//     kQueued   -> kRunning  on dispatch (acquire: see producer pushes)
//     kRunning  -> kIdle     drained and no notification raced in
//     kNotified -> kRunning  notification raced in: drain again
//     kRunning  -> kQueued   dispatch quantum exhausted: requeue locally
enum SiteSchedState : uint32_t {
  kSiteIdle = 0,
  kSiteQueued = 1,
  kSiteRunning = 2,
  kSiteNotified = 3,
};

struct LogicalSite {
  LogicalSite(sim::SiteNode* node, int site, size_t queue_batches)
      : node(node),
        site(site),
        items(queue_batches),
        // One slot per in-flight batch plus slack for the buffer the
        // feeder is filling and the one a worker is draining, so the free
        // list never overflows in the steady state.
        recycled(queue_batches + 2),
        control(0) {}

  LogicalSite(const LogicalSite&) = delete;
  LogicalSite& operator=(const LogicalSite&) = delete;

  // Any work a dispatching thread could pick up right now. Safe from any
  // thread; the scheduling protocol (not this hint) is what guarantees no
  // work is stranded.
  bool HasWork() const { return !items.Empty() || control.SizeApprox() > 0; }

  sim::SiteNode* const node;
  const int site;
  SpscRing<ItemBatch> items;     // feeder -> running thread (whole batches)
  SpscRing<ItemBatch> recycled;  // running thread -> feeder (drained buffers)
  Channel<sim::Payload> control;  // coordinator -> site, unbounded
  std::atomic<uint32_t> sched{kSiteIdle};
};

}  // namespace dwrs::engine

#endif  // DWRS_ENGINE_LOGICAL_SITE_H_
