// Coordinator-side protocol of the weighted SWOR sampler (paper
// Algorithms 2 and 3): maintains the top-s sample S, the level sets D_j,
// the epoch threshold u, and answers continuous sample queries with the
// top-s keys of S ∪ D.

#ifndef DWRS_CORE_COORDINATOR_H_
#define DWRS_CORE_COORDINATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.h"
#include "core/level_sets.h"
#include "random/rng.h"
#include "sampling/keyed_item.h"
#include "sampling/top_key_heap.h"
#include "sim/node.h"

namespace dwrs {

// Threading contract (audited for the concurrent engine): the class is
// externally synchronized. OnMessage mutates sample_, levels_ and rng_,
// and Sample()/Threshold()/StoredEntries() read the same state without
// internal locking, so a query concurrent with message processing is a
// data race. Under sim::Runtime everything runs on one thread; under
// engine::Engine all OnMessage calls happen on the coordinator thread and
// queries are only legal at quiesce points (after Engine::Flush or inside
// a step-synchronous on_step hook), which establish a happens-before edge
// with the coordinator thread. Keeping the coordinator lock-free keeps
// the single-threaded hot path at the paper's O(log s) per message.
class WsworCoordinator : public sim::CoordinatorNode {
 public:
  WsworCoordinator(const WsworConfig& config, sim::Transport* transport,
                   uint64_t seed);

  void OnMessage(int site, const sim::Payload& msg) override;

  // Mergeable shard summary: S as top-key entries, D as level-tagged
  // withheld entries with per-level counts. Merging the summaries of
  // shard coordinators over disjoint site subsets yields exactly the
  // sample a single coordinator over all sites would answer with (each
  // item's key is drawn once, at its one shard; see
  // sampling/mergeable_sample.h for the thinning argument). The export
  // is stamped with StateVersion().
  MergeableSample ShardSample() const override;

  // Advances by one per processed protocol message — the coordinator's
  // state is a deterministic function of its delivered-message prefix,
  // so equal versions imply equal state (the property the live-query
  // snapshot layer keys on).
  uint64_t StateVersion() const override { return state_version_; }

  // The continuously maintained weighted SWOR: top-s keys of S ∪ D,
  // descending by key; fewer than s entries only while fewer than s items
  // have been observed. See the threading contract above: callers must
  // not invoke this concurrently with OnMessage.
  std::vector<KeyedItem> Sample() const;

  // u: s-th largest key among sampled (regular + released) items.
  double Threshold() const { return sample_.ThresholdOrZero(); }

  // Announced epoch (-1 until u >= 1).
  int announced_epoch() const { return announced_epoch_; }

  // Space audit (Proposition 6): total stored (item, key) entries.
  size_t StoredEntries() const {
    return sample_.size() + levels_.StoredEntries();
  }

  uint64_t early_received() const { return early_received_; }
  uint64_t regular_received() const { return regular_received_; }

  // Early arrivals at a level already saturated, plus regular arrivals
  // whose key is at or below the announced epoch threshold: both were
  // sent before the site heard a broadcast. A diagnostic, not part of
  // the checkpointed State.
  uint64_t wasted_messages() const override { return wasted_messages_; }

  // The protocol messages that rebuild a crashed-and-restarted site's
  // filter state from coordinator state: the current epoch threshold (if
  // announced) plus one saturation notice per saturated level. All are
  // monotone/idempotent, so replaying them is safe under loss,
  // duplication, and reordering — the resync path of the fault model
  // (src/faults/session.h).
  std::vector<sim::Payload> ResyncMessages() const;

  const LevelSetManager& levels() const { return levels_; }

  // Shard label stamped on this coordinator's flight-recorder events
  // (threshold bumps). Set by the sharded/fault harnesses; 0 otherwise.
  void set_trace_shard(int shard) { trace_shard_ = shard; }

  // --- durability surface (src/durability/) ---------------------------

  // Sample membership change: the entry that entered S and, when the
  // sample was full, the one it displaced. Observed by the durability
  // layer's WAL (sample-delta audit records); adds/evicts are internal
  // heap operations, not wire messages, so this is the only seam that
  // sees them. One unset-hook branch per accepted entry when unused.
  struct SampleDelta {
    KeyedItem added;
    bool evicted_valid = false;
    uint64_t evicted_id = 0;
  };
  void set_sample_delta_hook(std::function<void(const SampleDelta&)> hook) {
    sample_delta_hook_ = std::move(hook);
  }

  // Full coordinator state for durable checkpoints. The summary carries
  // S, the withheld entries and the level counts (exactly the mergeable
  // export); the saturation flags ride separately because they are not
  // derivable from the counts (see level_sets.h), and the RNG words make
  // restored key draws bit-identical.
  struct State {
    uint64_t rng[4] = {0, 0, 0, 0};
    int announced_epoch = -1;
    uint64_t early_received = 0;
    uint64_t regular_received = 0;
    uint64_t state_version = 0;
    MergeableSample summary;
    std::vector<int> saturated_levels;
  };
  State SaveState() const;
  void RestoreState(const State& s);

 private:
  void AddToSample(const Item& item, double key);
  void MaybeAnnounceEpoch();

  const WsworConfig config_;
  const double base_;
  sim::Transport* transport_;
  Rng rng_;
  TopKeyHeap<Item> sample_;  // S
  LevelSetManager levels_;   // D with Prop. 6 compaction
  int announced_epoch_ = -1;
  int trace_shard_ = 0;
  uint64_t early_received_ = 0;
  uint64_t regular_received_ = 0;
  uint64_t wasted_messages_ = 0;
  uint64_t state_version_ = 0;
  std::function<void(const SampleDelta&)> sample_delta_hook_;
};

}  // namespace dwrs

#endif  // DWRS_CORE_COORDINATOR_H_
