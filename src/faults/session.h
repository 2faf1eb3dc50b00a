// Session layer that makes the paper's protocols survive an unreliable
// transport: per-site monotonic sequence numbers and crash epochs stamped
// onto every upstream message, coordinator-side duplicate suppression and
// gap detection with go-back-N retransmission, and a resync path that
// replays the coordinator's filter state (epoch threshold, saturated
// levels) to a crashed-and-restarted site.
//
// Why only the upstream direction carries reliability state: for the
// hardened protocols (core wswor, the unweighted substrate, the L1
// tracker) every coordinator->site message is a monotone filter update —
// thresholds only tighten, saturation flags only set — so downstream
// loss, duplication, and reordering are absorbed by the protocol itself
// (a stale filter only costs extra messages, never correctness). The
// upstream direction carries sample candidates, where a loss or a
// duplicate would silently corrupt the sample; that is what the session
// layer guards.
//
//   endpoint (WsworSite) --sends via--> SiteSession (stamps seq/epoch,
//       buffers unacked)  --> FaultyTransport --> Network / Engine
//   CoordinatorSession (dedup, gap nack, ack, resync) --> inner
//       coordinator endpoint
//
// Protocols whose site state cannot be reconstructed from coordinator
// state (the naive baseline's local top-s, the sliding-window sampler's
// expiry queues) declare kRequiresReliableTransport in their headers and
// are excluded from the fault harness.

#ifndef DWRS_FAULTS_SESSION_H_
#define DWRS_FAULTS_SESSION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "faults/fault_schedule.h"
#include "sim/message.h"
#include "sim/node.h"
#include "stream/item.h"

namespace dwrs::faults {

// Session-control message tags. Chosen clear of every protocol's own tag
// space (all protocols number from 1) but inside the 32-slot by_type
// accounting window.
enum SessionMessageType : uint32_t {
  kSessionAck = 24,    // coord -> site: a = cumulative seq; epoch echoed
  kSessionNack = 25,   // coord -> site: a = retransmit-from seq; epoch
  kSessionHello = 26,  // site -> coord: first stamped message of an epoch
};

// The site half. Owns the protocol endpoint (rebuilt on restart via the
// factory) and sits between it and the transport in both directions.
class SiteSession : public sim::SiteNode, public sim::Transport {
 public:
  // Builds the protocol endpoint for `epoch`; the endpoint must send via
  // `upper` (this session). Epoch 0 is the initial pre-crash endpoint;
  // later epochs must derive fresh randomness from the epoch so a
  // restarted site never replays its previous key stream.
  using EndpointFactory = std::function<std::unique_ptr<sim::SiteNode>(
      sim::Transport* upper, uint32_t epoch)>;

  SiteSession(int site, sim::Transport* lower, const FaultSchedule* schedule,
              EndpointFactory factory);

  // --- sim::SiteNode (attached to the runtime/engine) ------------------
  // Span ingestion splits the span at crash/restart boundaries and hands
  // the maximal live runs to the inner endpoint's OnItems, so the batched
  // engine path keeps its throughput under fault injection while staying
  // transcript-identical to the per-item path (OnItem is the n = 1 span).
  void OnItem(const Item& item) override;
  void OnItems(const Item* items, size_t n) override;
  void OnMessage(const sim::Payload& msg) override;
  sim::SiteHotPathCounters HotPathCounters() const override {
    // Counters of dead incarnations (folded in by Crash()) plus the
    // live endpoint's, so crash-restarts never shrink the totals.
    sim::SiteHotPathCounters total = pre_crash_counters_;
    if (endpoint_) total += endpoint_->HotPathCounters();
    return total;
  }

  // --- sim::Transport (handed to the inner endpoint) -------------------
  void SendToCoordinator(int site, const sim::Payload& msg) override;
  void SendToSite(int site, const sim::Payload& msg) override;
  void Broadcast(const sim::Payload& msg) override;
  uint64_t step() const override { return lower_->step(); }

  // Re-sends every unacked message (same stamps, same payload — a
  // retransmission is byte-identical to the original). Reconcile helper;
  // quiesce points only.
  void RetransmitAllUnacked();

  bool retransmit_pending() const { return retransmit_pending_; }

  // --- introspection ---------------------------------------------------
  uint32_t epoch() const { return epoch_; }
  bool down() const { return down_; }
  size_t unacked_size() const { return unacked_.size(); }
  uint64_t crashes() const { return crashes_; }
  // Ground truth for "data irrecoverably lost": stamped messages that
  // were neither acked nor retransmittable when a crash wiped the buffer.
  uint64_t lost_unacked() const { return lost_unacked_; }
  // Items that arrived while the site was down (never sampled).
  uint64_t items_lost() const { return items_lost_; }
  uint64_t messages_dropped_down() const { return messages_dropped_down_; }
  // Go-back-N replay traffic: messages re-sent from the unacked buffer
  // (nack-triggered deferred replays plus reconcile-round retransmits).
  uint64_t retransmits_sent() const { return retransmits_sent_; }

  // Shard label stamped on this session's flight-recorder events
  // (sharded harness wiring; 0 for unsharded runs).
  void set_trace_shard(int shard) { trace_shard_ = shard; }

  // --- durable-checkpoint surface (src/durability/) --------------------
  // Everything volatile the session owns: the reliability stamps, the
  // unacked retransmit buffer, the crash/down bookkeeping and the
  // counters. The endpoint's own protocol state is saved separately by
  // the durability layer through endpoint().
  struct State {
    uint32_t epoch = 0;
    uint32_t next_seq = 1;
    std::vector<sim::Payload> unacked;
    bool retransmit_pending = false;
    uint32_t retransmit_from = 0;
    uint64_t items_seen = 0;
    bool down = false;
    uint64_t down_remaining = 0;
    uint64_t crashes = 0;
    uint64_t lost_unacked = 0;
    uint64_t items_lost = 0;
    uint64_t messages_dropped_down = 0;
    uint64_t retransmits_sent = 0;
    sim::SiteHotPathCounters pre_crash_counters;
  };
  State SaveState() const;
  // Restores the session and rebuilds the endpoint at the saved epoch
  // (no endpoint while down). Sends nothing — unlike Restart(), the
  // restored incarnation already introduced itself in the original
  // timeline. The caller restores the endpoint's protocol state
  // afterwards through endpoint().
  void RestoreState(const State& s);
  // The live protocol endpoint (nullptr while down). Mutable access for
  // the durability layer's endpoint state save/restore only.
  sim::SiteNode* endpoint() { return endpoint_.get(); }

 private:
  void Crash();
  void Restart();

  const int site_;
  sim::Transport* const lower_;
  const FaultSchedule* const schedule_;
  EndpointFactory factory_;
  std::unique_ptr<sim::SiteNode> endpoint_;

  uint32_t epoch_ = 0;
  uint32_t next_seq_ = 1;
  std::deque<sim::Payload> unacked_;  // stamped, seq-ascending
  // Go-back-N replay requested by a nack. Deferred to the site's next
  // OnItem rather than performed inline: an inline replay can race — a
  // single coordinator broadcast may release withheld nacks to several
  // sites, whose worker threads would then push replay bursts into the
  // MPSC coordinator inbox concurrently, making the interleaving (and so
  // the transcript) timing-dependent on the engine backend. Deferral
  // keeps exactly one upstream producer per step on both backends, which
  // is what makes a fault seed replay bit-identically.
  bool retransmit_pending_ = false;
  uint32_t retransmit_from_ = 0;

  uint64_t items_seen_ = 0;
  bool down_ = false;
  uint64_t down_remaining_ = 0;

  uint64_t crashes_ = 0;
  uint64_t lost_unacked_ = 0;
  uint64_t items_lost_ = 0;
  uint64_t messages_dropped_down_ = 0;
  uint64_t retransmits_sent_ = 0;
  int trace_shard_ = 0;
  // Hot-path counters of endpoints destroyed by crashes.
  sim::SiteHotPathCounters pre_crash_counters_;
};

// The coordinator half. Delivers upstream messages to the inner endpoint
// exactly once and in per-site order; acks cumulatively; nacks gaps;
// detects restarts (epoch bumps, with or without the hello arriving) and
// replays the resync state to the reborn site.
class CoordinatorSession : public sim::CoordinatorNode {
 public:
  // Produces the protocol messages that rebuild a restarted site's
  // filter state from the coordinator's (e.g. current epoch threshold +
  // saturated levels). Sent down on every detected restart; must be
  // idempotent and safe under loss (all hardened protocols' filter
  // updates are).
  using ResyncProvider = std::function<std::vector<sim::Payload>()>;

  CoordinatorSession(int num_sites, sim::CoordinatorNode* inner,
                     sim::Transport* lower, ResyncProvider resync);

  void OnMessage(int site, const sim::Payload& msg) override;

  // The session is transparent to the root merge stage: a sharded
  // backend attached to sessions still answers MergedSample queries with
  // the inner coordinators' summaries. Version forwarding keeps the
  // live-query snapshot layer oblivious to the session wrapper too, and
  // waste forwarding lets a pipelined backend pace quiesces through it.
  MergeableSample ShardSample() const override {
    return inner_->ShardSample();
  }
  uint64_t StateVersion() const override { return inner_->StateVersion(); }
  uint64_t wasted_messages() const override {
    return inner_->wasted_messages();
  }

  // --- introspection ---------------------------------------------------
  // FNV-1a fold of every in-order delivered message (site, stamps and
  // payload bits included): the replayable transcript. Two runs are
  // bit-identical iff hash and count agree.
  uint64_t transcript_hash() const { return transcript_hash_; }
  uint64_t delivered() const { return delivered_; }

  uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  uint64_t stale_epoch_dropped() const { return stale_epoch_dropped_; }
  uint64_t gaps_detected() const { return gaps_detected_; }
  uint64_t nacks_sent() const { return nacks_sent_; }
  uint64_t crash_detections() const { return crash_detections_; }
  uint64_t resyncs_sent() const { return resyncs_sent_; }

  // Shard label for this session's flight-recorder events.
  void set_trace_shard(int shard) { trace_shard_ = shard; }

  // True iff no site has an outstanding unfilled gap (every delivered
  // prefix is contiguous and nothing received still waits on a nack).
  bool AllGapsResolved() const;

  // Highest crash epoch observed across all sites — the coordinator-side
  // epoch coherence stamp the live-query snapshots carry (a bump means
  // some site of this shard crashed and restarted).
  uint32_t MaxSiteEpoch() const;

  struct PeerState {
    uint32_t epoch = 0;
    uint32_t expected_seq = 1;
    // Highest seq observed in the current epoch; > expected_seq - 1 means
    // an unfilled gap.
    uint32_t max_seen_seq = 0;
    uint32_t last_nacked_expected = 0;
  };

  // --- durable-checkpoint surface (src/durability/) --------------------
  // The per-peer reliability state plus the transcript fold and counters;
  // with these restored at a checkpoint, re-feeding the stream from there
  // reproduces the exact delivered prefix and counter evolution of the
  // original run.
  struct State {
    std::vector<PeerState> peers;
    uint64_t transcript_hash = 0;
    uint64_t delivered = 0;
    uint64_t duplicates_dropped = 0;
    uint64_t stale_epoch_dropped = 0;
    uint64_t gaps_detected = 0;
    uint64_t nacks_sent = 0;
    uint64_t crash_detections = 0;
    uint64_t resyncs_sent = 0;
  };
  State SaveState() const;
  void RestoreState(const State& s);

 private:
  void SendAck(int site, const PeerState& peer);
  void FoldTranscript(int site, const sim::Payload& msg);

  sim::CoordinatorNode* const inner_;
  sim::Transport* const lower_;
  ResyncProvider resync_;
  std::vector<PeerState> peers_;

  uint64_t transcript_hash_ = 1469598103934665603ull;  // FNV offset basis
  uint64_t delivered_ = 0;
  uint64_t duplicates_dropped_ = 0;
  uint64_t stale_epoch_dropped_ = 0;
  uint64_t gaps_detected_ = 0;
  uint64_t nacks_sent_ = 0;
  uint64_t crash_detections_ = 0;
  uint64_t resyncs_sent_ = 0;
  int trace_shard_ = 0;
};

}  // namespace dwrs::faults

#endif  // DWRS_FAULTS_SESSION_H_
