// Protocol endpoint and transport interfaces shared by every execution
// backend. A protocol is written once against these three interfaces and
// then runs unmodified on either backend:
//
//   sim::Runtime    — single-threaded, step-synchronous simulated network
//                     (src/sim/network.h); exact, deterministic, counts
//                     messages per the paper's model.
//   engine::Engine  — multi-threaded execution engine (src/engine/); k
//                     logical sites multiplexed over a work-stealing
//                     worker pool, batched ingestion, MPSC channel to a
//                     coordinator thread.
//
// Endpoints are single-threaded by contract: the backend guarantees that
// OnItem / OnMessage / OnRound of one endpoint are never invoked
// concurrently, so endpoint implementations need no locking.

#ifndef DWRS_SIM_NODE_H_
#define DWRS_SIM_NODE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sampling/mergeable_sample.h"
#include "sim/message.h"
#include "stream/item.h"
#include "util/check.h"

namespace dwrs::sim {

// The send side of the coordinator model. Implemented by sim::Network
// (FIFO queues with delay/jitter) and engine::Engine (bounded
// inter-thread channels). Endpoints depend only on this interface, which
// keeps the concurrent engine free of the simulated network and vice
// versa.
class Transport {
 public:
  virtual ~Transport() = default;

  // Site `site` sends one message up to the coordinator.
  virtual void SendToCoordinator(int site, const Payload& msg) = 0;
  // The coordinator sends one message down to site `site`.
  virtual void SendToSite(int site, const Payload& msg) = 0;
  // Coordinator -> every site; accounted as num_sites messages (as in the
  // paper's analysis) plus one broadcast event.
  virtual void Broadcast(const Payload& msg) = 0;

  // Monotone event clock: the number of stream events observed so far.
  // Exact under the step-synchronous simulator; under the concurrent
  // engine it is the ingestion count, which may run slightly ahead of the
  // observing endpoint (time-driven protocols such as sliding-window
  // expiry see an upper bound on the true step).
  virtual uint64_t step() const = 0;
};

// Hot-path instrumentation a site endpoint may export (Proposition 7
// accounting): how many threshold decisions it made, how many random
// bits those decisions consumed, and how many items the geometric-skip
// thinning rejected without touching the RNG at all. Endpoints without
// a randomized filter report zeros.
struct SiteHotPathCounters {
  uint64_t keys_decided = 0;
  uint64_t key_bits_consumed = 0;
  uint64_t skips_taken = 0;

  SiteHotPathCounters& operator+=(const SiteHotPathCounters& o) {
    keys_decided += o.keys_decided;
    key_bits_consumed += o.key_bits_consumed;
    skips_taken += o.skips_taken;
    return *this;
  }
  friend bool operator==(const SiteHotPathCounters&,
                         const SiteHotPathCounters&) = default;
};

// A protocol endpoint running at a site. Implementations receive their
// site index and a Transport for sending at construction time.
class SiteNode {
 public:
  virtual ~SiteNode() = default;
  virtual void OnItem(const Item& item) = 0;
  // Span ingestion: the batched hot path. Semantically identical to
  // calling OnItem per element — endpoints overriding this MUST keep the
  // transcript equal to the per-item path for every partition of the
  // stream into spans (hoist loop-invariant state, but make randomized
  // filters partition-invariant; see random/geometric_skip.h). The
  // backends guarantee OnMessage is never interleaved inside one OnItems
  // call, so endpoint state is loop-invariant within a span.
  virtual void OnItems(const Item* items, size_t n) {
    for (size_t i = 0; i < n; ++i) OnItem(items[i]);
  }
  virtual void OnMessage(const Payload& msg) = 0;
  // Invoked once per global round for sites registered via
  // Runtime::AttachTicker. In the paper's synchronous model every site
  // knows the round number at no message cost; protocols whose state
  // evolves with time alone (e.g. sliding-window expiry) hook this.
  // Backend note: only the step-synchronous simulator drives tickers.
  virtual void OnRound(uint64_t /*step*/) {}
  // Hot-path counters for stats surfacing (engine::Stats, bench JSON).
  virtual SiteHotPathCounters HotPathCounters() const { return {}; }
};

class CoordinatorNode {
 public:
  virtual ~CoordinatorNode() = default;
  virtual void OnMessage(int site, const Payload& msg) = 0;
  // Mergeable shard summary (sampling/mergeable_sample.h): the compact
  // state a root merge stage combines across shard coordinators into an
  // exact global sample. Legal at the same points as any other query
  // (quiesce points; see the threading contract in core/coordinator.h).
  // Coordinators without mergeable state report kEmpty, which merges as
  // the identity. Exports are versioned: implementations stamp
  // MergeableSample::state_version with StateVersion(), so a consumer
  // (the live query layer, src/query/) can tell two exports of the same
  // coordinator state apart from two different states.
  virtual MergeableSample ShardSample() const { return {}; }
  // Monotone state-change counter: advances by exactly one per processed
  // protocol message (the coordinator's state is a pure function of its
  // delivered-message prefix, so equal versions on one coordinator imply
  // equal state). 0 before the first message; coordinators without
  // version tracking report 0 forever.
  virtual uint64_t StateVersion() const { return 0; }
  // Arrivals a site sent on control state this coordinator had already
  // superseded: messages a step-synchronous run would not have sent, so
  // exactly 0 there (every control message reaches every site before the
  // next event). Pipelined backends read it at quiesce points to pace
  // their quiesces (engine/engine.h). Protocols without threshold
  // control state report 0.
  virtual uint64_t wasted_messages() const { return 0; }
};

// The validated per-shard summary every sharded backend's root merge
// collects: the coordinator must be attached and must export mergeable
// state — a kEmpty summary would silently drop the shard's slice from
// the merged sample, an invisible wrong answer.
inline MergeableSample CheckedShardSummary(const CoordinatorNode* node,
                                           size_t shard) {
  DWRS_CHECK(node != nullptr) << " shard " << shard
                              << " coordinator not attached";
  MergeableSample summary = node->ShardSample();
  DWRS_CHECK(summary.kind != SampleKind::kEmpty)
      << " shard " << shard
      << "'s coordinator exports no mergeable summary (protocol not "
         "shardable?)";
  return summary;
}

// The root merge every sharded backend answers MergedSample() with: the
// checked summaries of `coordinators` (shard order) merged exactly.
inline MergeableSample MergeShardCoordinators(
    const std::vector<const CoordinatorNode*>& coordinators) {
  std::vector<MergeableSample> summaries;
  summaries.reserve(coordinators.size());
  for (size_t shard = 0; shard < coordinators.size(); ++shard) {
    summaries.push_back(CheckedShardSummary(coordinators[shard], shard));
  }
  return MergeShardSamples(summaries);
}

}  // namespace dwrs::sim

#endif  // DWRS_SIM_NODE_H_
