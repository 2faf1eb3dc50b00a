#include "faults/session.h"

#include <bit>

#include "obs/trace.h"
#include "util/check.h"

namespace dwrs::faults {

namespace {

// Flight-recorder event carrying a session message's identity. All
// session events are deterministic per (seeds, workload) on a
// step-synchronous backend, so they participate in the canonical
// transcript (obs/trace.h).
obs::TraceEvent SessionEvent(obs::EventType type, int shard, int site,
                             uint8_t dir, const sim::Payload& msg) {
  obs::TraceEvent event;
  event.type = type;
  event.shard = static_cast<int16_t>(shard);
  event.site = site;
  event.dir = dir;
  event.msg_type = static_cast<uint16_t>(msg.type);
  event.seq = msg.seq;
  event.epoch = msg.epoch;
  event.a = msg.a;
  event.x = msg.x;
  return event;
}

}  // namespace

// ---------------------------------------------------------------------
// SiteSession

SiteSession::SiteSession(int site, sim::Transport* lower,
                         const FaultSchedule* schedule,
                         EndpointFactory factory)
    : site_(site),
      lower_(lower),
      schedule_(schedule),
      factory_(std::move(factory)) {
  DWRS_CHECK(lower != nullptr);
  DWRS_CHECK(schedule != nullptr);
  DWRS_CHECK(factory_ != nullptr);
  endpoint_ = factory_(this, /*epoch=*/0);
  DWRS_CHECK(endpoint_ != nullptr);
}

void SiteSession::OnItem(const Item& item) { OnItems(&item, 1); }

void SiteSession::OnItems(const Item* items, size_t n) {
  // Walk the span splitting it into maximal live runs. The per-item
  // crash/down bookkeeping below replays the per-item path exactly; the
  // endpoint only ever sees contiguous live runs, and since its own span
  // path is partition-invariant the transcript is independent of how the
  // backend batched the stream.
  constexpr size_t kNoRun = static_cast<size_t>(-1);
  size_t run_start = kNoRun;
  const auto flush_run = [&](size_t end) {
    if (run_start == kNoRun) return;
    endpoint_->OnItems(items + run_start, end - run_start);
    run_start = kNoRun;
  };
  for (size_t i = 0; i < n; ++i) {
    const uint64_t index = state_.items_seen++;
    if (!state_.down && schedule_->CrashesAt(site_, index)) {
      flush_run(i);
      Crash();
    }
    if (state_.down) {
      ++state_.items_lost;
      if (--state_.down_remaining == 0) Restart();
      continue;
    }
    if (run_start == kNoRun) {
      if (state_.retransmit_pending) {
        // Deferred go-back-N replay (see State::retransmit_pending): runs
        // at the site's own step, before the new item, so the coordinator
        // can fill the gap and then take the new message in order. A nack
        // can only arrive between spans, so checking at the head of each
        // live run is exactly the per-item check.
        state_.retransmit_pending = false;
        for (const sim::Payload& m : state_.unacked) {
          if (m.seq < state_.retransmit_from) continue;
          ++state_.retransmits_sent;
          if (obs::TracingEnabled()) {
            obs::Emit(SessionEvent(obs::EventType::kRetransmit, trace_shard_,
                                   site_, /*dir=*/1, m));
          }
          lower_->SendToCoordinator(site_, m);
        }
      }
      run_start = i;
    }
  }
  flush_run(n);
}

void SiteSession::OnMessage(const sim::Payload& msg) {
  if (obs::TracingEnabled()) {
    obs::Emit(SessionEvent(obs::EventType::kMsgRecv, trace_shard_, site_,
                           /*dir=*/2, msg));
  }
  if (state_.down) {
    // The process is dead; anything addressed to it is lost on the floor.
    ++state_.messages_dropped_down;
    return;
  }
  switch (msg.type) {
    case kSessionAck: {
      if (msg.epoch != state_.epoch) return;  // ack for a previous incarnation
      while (!state_.unacked.empty() && state_.unacked.front().seq <= msg.a) {
        state_.unacked.pop_front();
      }
      return;
    }
    case kSessionNack: {
      if (msg.epoch != state_.epoch) return;
      // Request go-back-N replay from the lowest seq any nack asked for;
      // performed at the next OnItem (see OnItem).
      if (!state_.retransmit_pending ||
          msg.a < static_cast<uint64_t>(state_.retransmit_from)) {
        state_.retransmit_from = static_cast<uint32_t>(msg.a);
      }
      state_.retransmit_pending = true;
      return;
    }
    default:
      endpoint_->OnMessage(msg);
  }
}

void SiteSession::SendToCoordinator(int site, const sim::Payload& msg) {
  DWRS_CHECK_EQ(site, site_);
  DWRS_CHECK(!state_.down);
  // seq 0 means "unstamped" on the wire, so wrapping within one epoch
  // would silently break dedup; fail loudly instead (2^32 messages from
  // one site without a crash is outside the design envelope).
  DWRS_CHECK_NE(state_.next_seq, 0u) << " per-epoch sequence space exhausted";
  sim::Payload stamped = msg;
  stamped.seq = state_.next_seq++;
  stamped.epoch = state_.epoch;
  state_.unacked.push_back(stamped);
  lower_->SendToCoordinator(site_, stamped);
}

void SiteSession::SendToSite(int /*site*/, const sim::Payload& /*msg*/) {
  DWRS_CHECK(false) << " site endpoints never send downstream";
}

void SiteSession::Broadcast(const sim::Payload& /*msg*/) {
  DWRS_CHECK(false) << " site endpoints never broadcast";
}

void SiteSession::RetransmitAllUnacked() {
  if (state_.down) return;
  state_.retransmit_pending = false;
  for (const sim::Payload& m : state_.unacked) {
    ++state_.retransmits_sent;
    if (obs::TracingEnabled()) {
      obs::Emit(SessionEvent(obs::EventType::kRetransmit, trace_shard_, site_,
                             /*dir=*/1, m));
    }
    lower_->SendToCoordinator(site_, m);
  }
}

void SiteSession::Crash() {
  ++state_.crashes;
  if (obs::TracingEnabled()) {
    obs::TraceEvent event;
    event.type = obs::EventType::kCrash;
    event.shard = static_cast<int16_t>(trace_shard_);
    event.site = site_;
    event.epoch = state_.epoch;
    event.a = state_.unacked.size();  // messages about to be irrecoverably lost
    obs::Emit(event);
  }
  state_.down = true;
  state_.down_remaining =
      static_cast<uint64_t>(schedule_->config().crash_down_items);
  // Volatile state dies with the process: the endpoint, and with it any
  // sent-but-unacked messages — those are irrecoverable and counted, so
  // a degraded sample is always detectable, never silent.
  state_.lost_unacked += state_.unacked.size();
  state_.unacked.clear();
  state_.retransmit_pending = false;
  state_.pre_crash_counters += endpoint_->HotPathCounters();
  endpoint_.reset();
}

void SiteSession::Restart() {
  state_.down = false;
  ++state_.epoch;
  state_.next_seq = 1;
  if (obs::TracingEnabled()) {
    obs::TraceEvent event;
    event.type = obs::EventType::kRestart;
    event.shard = static_cast<int16_t>(trace_shard_);
    event.site = site_;
    event.epoch = state_.epoch;
    obs::Emit(event);
  }
  endpoint_ = factory_(this, state_.epoch);
  DWRS_CHECK(endpoint_ != nullptr);
  // The hello is the first stamped message of the new epoch, so it is
  // covered by the same dedup/gap/retransmit machinery as everything
  // else; if it is dropped, the next message's higher epoch announces the
  // restart implicitly and go-back-N recovers the hello itself.
  sim::Payload hello;
  hello.type = kSessionHello;
  hello.words = 2;
  SendToCoordinator(site_, hello);
}

void SiteSession::RestoreState(const State& s) {
  state_ = s;
  // Rebuild the endpoint at the saved epoch (dead while down); no hello —
  // this incarnation already introduced itself in the original timeline.
  endpoint_.reset();
  if (!state_.down) {
    endpoint_ = factory_(this, state_.epoch);
    DWRS_CHECK(endpoint_ != nullptr);
  }
}

// ---------------------------------------------------------------------
// CoordinatorSession

CoordinatorSession::CoordinatorSession(int num_sites,
                                       sim::CoordinatorNode* inner,
                                       sim::Transport* lower,
                                       ResyncProvider resync)
    : inner_(inner), lower_(lower), resync_(std::move(resync)) {
  DWRS_CHECK(inner != nullptr);
  DWRS_CHECK(lower != nullptr);
  DWRS_CHECK_GT(num_sites, 0);
  state_.peers.resize(static_cast<size_t>(num_sites));
}

void CoordinatorSession::SendAck(int site, const PeerState& peer) {
  sim::Payload ack;
  ack.type = kSessionAck;
  ack.a = peer.expected_seq - 1;
  ack.epoch = peer.epoch;
  ack.words = 2;
  lower_->SendToSite(site, ack);
}

void CoordinatorSession::FoldTranscript(int site, const sim::Payload& msg) {
  auto fold = [this](uint64_t v) {
    state_.transcript_hash ^= v;
    state_.transcript_hash *= 1099511628211ull;  // FNV prime
  };
  fold(static_cast<uint64_t>(site));
  fold(msg.type);
  fold(msg.a);
  fold(msg.seq);
  fold(msg.epoch);
  fold(std::bit_cast<uint64_t>(msg.x));
  fold(std::bit_cast<uint64_t>(msg.y));
}

void CoordinatorSession::OnMessage(int site, const sim::Payload& msg) {
  DWRS_CHECK(site >= 0 && static_cast<size_t>(site) < state_.peers.size());
  DWRS_CHECK_GT(msg.seq, 0u) << " unstamped message on a faulty transport";
  PeerState& peer = state_.peers[static_cast<size_t>(site)];
  if (obs::TracingEnabled()) {
    obs::Emit(SessionEvent(obs::EventType::kMsgRecv, trace_shard_, site,
                           /*dir=*/1, msg));
  }

  if (msg.epoch < peer.epoch) {
    // In-flight leftover from before the site's crash.
    ++state_.stale_epoch_dropped;
    if (obs::TracingEnabled()) {
      obs::Emit(SessionEvent(obs::EventType::kStaleEpochDrop, trace_shard_,
                             site, /*dir=*/1, msg));
    }
    return;
  }
  if (msg.epoch > peer.epoch) {
    // Restart detected — via the hello, or implicitly via any later
    // message if the hello was lost. Rebuild the peer slot and replay the
    // coordinator's filter state so the reborn site stops over-sending.
    peer.epoch = msg.epoch;
    peer.expected_seq = 1;
    peer.max_seen_seq = 0;
    peer.last_nacked_expected = 0;
    ++state_.crash_detections;
    if (obs::TracingEnabled()) {
      obs::TraceEvent event;
      event.type = obs::EventType::kEpochBump;
      event.shard = static_cast<int16_t>(trace_shard_);
      event.site = site;
      event.dir = 1;
      event.epoch = peer.epoch;
      obs::Emit(event);
    }
    if (resync_) {
      for (sim::Payload m : resync_()) {
        m.epoch = peer.epoch;
        if (obs::TracingEnabled()) {
          obs::Emit(SessionEvent(obs::EventType::kResyncSend, trace_shard_,
                                 site, /*dir=*/2, m));
        }
        lower_->SendToSite(site, m);
        ++state_.resyncs_sent;
      }
    }
  }

  if (msg.seq > peer.max_seen_seq) peer.max_seen_seq = msg.seq;

  if (msg.seq < peer.expected_seq) {
    // Duplicate (network duplication or go-back-N overshoot). Re-ack so a
    // site retransmitting into a lost-ack window can still clear its
    // buffer.
    ++state_.duplicates_dropped;
    if (obs::TracingEnabled()) {
      obs::Emit(SessionEvent(obs::EventType::kDupDrop, trace_shard_, site,
                             /*dir=*/1, msg));
    }
    SendAck(site, peer);
    return;
  }
  if (msg.seq > peer.expected_seq) {
    // Gap: something before this message is missing. Nack once per
    // missing position; the end-of-stream reconcile covers nacks that
    // are themselves lost.
    ++state_.gaps_detected;
    if (peer.last_nacked_expected != peer.expected_seq) {
      peer.last_nacked_expected = peer.expected_seq;
      sim::Payload nack;
      nack.type = kSessionNack;
      nack.a = peer.expected_seq;
      nack.epoch = peer.epoch;
      nack.words = 2;
      if (obs::TracingEnabled()) {
        obs::Emit(SessionEvent(obs::EventType::kGapNack, trace_shard_, site,
                               /*dir=*/2, nack));
      }
      lower_->SendToSite(site, nack);
      ++state_.nacks_sent;
    }
    return;
  }

  // In order: deliver exactly once.
  ++peer.expected_seq;
  FoldTranscript(site, msg);
  ++state_.delivered;
  if (obs::TracingEnabled()) {
    obs::Emit(SessionEvent(obs::EventType::kMsgDeliver, trace_shard_, site,
                           /*dir=*/1, msg));
  }
  if (msg.type != kSessionHello) inner_->OnMessage(site, msg);
  SendAck(site, peer);
}

void CoordinatorSession::RestoreState(const State& s) {
  DWRS_CHECK_EQ(s.peers.size(), state_.peers.size());
  state_ = s;
}

bool CoordinatorSession::AllGapsResolved() const {
  for (const PeerState& peer : state_.peers) {
    if (peer.max_seen_seq >= peer.expected_seq) return false;
  }
  return true;
}

uint32_t CoordinatorSession::MaxSiteEpoch() const {
  uint32_t max_epoch = 0;
  for (const PeerState& peer : state_.peers) {
    if (peer.epoch > max_epoch) max_epoch = peer.epoch;
  }
  return max_epoch;
}

}  // namespace dwrs::faults
