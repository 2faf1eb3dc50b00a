#include "core/coordinator.h"

#include <algorithm>

#include "obs/trace.h"
#include "random/distributions.h"
#include "util/check.h"
#include "util/math_util.h"

namespace dwrs {

WsworCoordinator::WsworCoordinator(const WsworConfig& config,
                                   sim::Transport* transport, uint64_t seed)
    : config_(config),
      base_(config.ResolvedEpochBase()),
      transport_(transport),
      rng_(seed),
      sample_(static_cast<size_t>(config.sample_size)),
      levels_(base_, config.LevelCapacity(),
              static_cast<size_t>(config.sample_size)) {
  DWRS_CHECK(transport != nullptr);
}

void WsworCoordinator::AddToSample(const Item& item, double key) {
  if (sample_delta_hook_) {
    TopKeyHeap<Item>::Entry evicted{-1.0, Item{}};
    if (sample_.Offer(key, item, &evicted)) {
      SampleDelta delta;
      delta.added = KeyedItem{item, key};
      if (evicted.key >= 0.0) {
        delta.evicted_valid = true;
        delta.evicted_id = evicted.value.id;
      }
      sample_delta_hook_(delta);
    }
  } else {
    sample_.Offer(key, item);
  }
  MaybeAnnounceEpoch();
}

WsworCoordinator::State WsworCoordinator::SaveState() const {
  State s;
  rng_.SaveState(s.rng);
  s.announced_epoch = announced_epoch_;
  s.early_received = early_received_;
  s.regular_received = regular_received_;
  s.state_version = state_version_;
  s.summary = ShardSample();
  s.saturated_levels = levels_.SaturatedLevels();
  return s;
}

void WsworCoordinator::RestoreState(const State& s) {
  rng_.RestoreState(s.rng);
  announced_epoch_ = s.announced_epoch;
  early_received_ = s.early_received;
  regular_received_ = s.regular_received;
  state_version_ = s.state_version;
  sample_ = TopKeyHeap<Item>(static_cast<size_t>(config_.sample_size));
  for (const KeyedItem& ki : s.summary.entries) {
    sample_.Offer(ki.key, ki.item);
  }
  levels_.RestoreState(s.summary.level_counts, s.saturated_levels,
                       s.summary.withheld);
}

void WsworCoordinator::MaybeAnnounceEpoch() {
  const double u = sample_.ThresholdOrZero();
  if (u < 1.0) return;
  const int epoch = FloorLogBase(u, base_);
  if (epoch <= announced_epoch_) return;
  announced_epoch_ = epoch;
  sim::Payload msg;
  msg.type = kWsworUpdateEpoch;
  msg.x = PowInt(base_, epoch);
  msg.words = 2;
  if (obs::TracingEnabled()) {
    obs::TraceEvent event;
    event.type = obs::EventType::kThresholdBump;
    event.shard = static_cast<int16_t>(trace_shard_);
    event.epoch = static_cast<uint32_t>(epoch);
    event.x = msg.x;
    obs::Emit(event);
  }
  transport_->Broadcast(msg);
}

void WsworCoordinator::OnMessage(int /*site*/, const sim::Payload& msg) {
  ++state_version_;
  switch (msg.type) {
    case kWsworEarly: {
      ++early_received_;
      Item item{msg.a, msg.x};
      // Algorithm 2: the coordinator draws the key of an early item on
      // arrival; it participates in queries from D until its level
      // saturates.
      const double key = item.weight / Exponential(rng_);
      int saturated_level = -1;
      std::vector<KeyedItem> released =
          levels_.AddEarly(item, key, &saturated_level);
      // AddEarly hands an arrival at an already-saturated level straight
      // back (saturated_level stays -1): the site sent it before hearing
      // that level's saturation broadcast.
      if (saturated_level < 0 && !released.empty()) ++wasted_messages_;
      for (const KeyedItem& ki : released) AddToSample(ki.item, ki.key);
      if (saturated_level >= 0) {
        sim::Payload note;
        note.type = kWsworLevelSaturated;
        note.a = static_cast<uint64_t>(saturated_level);
        note.words = 2;
        transport_->Broadcast(note);
      }
      break;
    }
    case kWsworRegular: {
      ++regular_received_;
      // Sites send only keys above their threshold, so a key at or below
      // the announced one was sent before the announcement arrived.
      if (announced_epoch_ >= 0 && msg.y <= PowInt(base_, announced_epoch_)) {
        ++wasted_messages_;
      }
      // The heap applies the v > u filter of Algorithm 2 line 19 (the
      // site filtered by a possibly stale epoch threshold).
      AddToSample(Item{msg.a, msg.x}, msg.y);
      break;
    }
    default:
      DWRS_CHECK(false) << " unexpected message type " << msg.type;
  }
}

std::vector<sim::Payload> WsworCoordinator::ResyncMessages() const {
  std::vector<sim::Payload> out;
  if (announced_epoch_ >= 0) {
    sim::Payload msg;
    msg.type = kWsworUpdateEpoch;
    msg.x = PowInt(base_, announced_epoch_);
    msg.words = 2;
    out.push_back(msg);
  }
  for (int level : levels_.SaturatedLevels()) {
    sim::Payload note;
    note.type = kWsworLevelSaturated;
    note.a = static_cast<uint64_t>(level);
    note.words = 2;
    out.push_back(note);
  }
  return out;
}

MergeableSample WsworCoordinator::ShardSample() const {
  MergeableSample out;
  out.kind = SampleKind::kTopKey;
  out.target_size = static_cast<size_t>(config_.sample_size);
  out.state_version = state_version_;
  out.entries.reserve(sample_.size());
  for (const auto& e : sample_.entries()) {
    out.entries.push_back(KeyedItem{e.value, e.key});
  }
  out.withheld = levels_.WithheldLeveledEntries();
  out.level_counts = levels_.LevelCounts();
  return out;
}

std::vector<KeyedItem> WsworCoordinator::Sample() const {
  std::vector<KeyedItem> merged;
  merged.reserve(sample_.size() + levels_.StoredEntries());
  for (const auto& e : sample_.entries()) {
    merged.push_back(KeyedItem{e.value, e.key});
  }
  for (const KeyedItem& ki : levels_.WithheldEntries()) merged.push_back(ki);
  std::sort(merged.begin(), merged.end(),
            [](const KeyedItem& a, const KeyedItem& b) {
              return a.key > b.key;
            });
  if (merged.size() > static_cast<size_t>(config_.sample_size)) {
    merged.resize(static_cast<size_t>(config_.sample_size));
  }
  return merged;
}

}  // namespace dwrs
