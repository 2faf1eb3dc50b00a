// Live query snapshots: the per-shard state a coordinator publishes at
// shard-local quiesce points, and the single-writer/many-reader ring the
// query path reads it from without ever blocking — or being blocked by —
// ingestion.
//
// A ShardSnapshot is an immutable value: the shard coordinator's
// mergeable summary (sampling/mergeable_sample.h) plus the scalars a
// query endpoint serves (threshold, L1 estimate, traffic counters) and
// the coherence stamps a referee can audit (publish sequence, state
// version, session epoch, staleness flag).
//
// SnapshotPublisher is the handoff cell. The writer is the one thread
// that owns the coordinator endpoint (the engine's coordinator thread,
// or the driving thread under the step-synchronous simulator); readers
// are arbitrary query threads. The design is a double-buffer generalized
// to a small node pool with per-node reader pinning, and — since the
// ring generalization — R live nodes instead of one:
//
//   - The writer publishes into a pool node no reader currently pins
//     (refs == 0) and that is not referenced by any ring slot, then
//     stores it into ring slot (publish_seq - 1) % R and swaps the
//     `latest` pointer. The pool grows only when every spare node is
//     pinned, so steady state recycles the same few nodes — and nodes
//     are NEVER freed before the publisher dies, which is what makes
//     the reader protocol safe without hazard pointers.
//   - A reader pins: load a slot (or `latest`), increment the node's
//     reader count, re-validate that the slot still holds the node.
//     Validation failure (the writer rotated the slot concurrently)
//     releases and retries; success means the node's content is
//     complete (the seq_cst slot store the validation load reads from
//     happens after the writer's content write) and cannot be
//     overwritten while pinned (the writer skips nodes with refs != 0,
//     and the skip-check pairs with the reader's pin/validate
//     sequence). A slot can suffer ABA — the same node evicted and
//     later re-published into the same slot — but the re-published
//     content is itself complete before the store the validation read,
//     so the copy is coherent either way; readers trust the stamps
//     inside the copy, never the slot index.
//
// Reads are lock-free: a reader retries only when the writer published
// concurrently, and never waits on a lock or on another reader. The
// writer never waits at all.
//
// The ring enables time-travel reads: ReadAsOf(v) returns the newest
// retained snapshot whose state_version <= v, or fails if every
// retained snapshot is newer (the version was evicted — callers must
// treat eviction as "history gone", not as an error to retry).
//
// Freshness waits: WaitForStateVersion(v) blocks until a publish with
// state_version >= v lands (the publisher notifies only when waiters
// are registered, so the publish hot path stays two atomic stores).
// Published state versions are nondecreasing — degraded publishes
// freeze at the last clean version, never an older one.
//
// Degraded publishes (snap.stale == true, the fault path): the publisher
// freezes the CONTENT at the last clean snapshot — sample, threshold,
// L1, state version — republishing it with the stale flag and the
// caller's fresh coherence stamps. A crashed or gapped shard therefore
// serves its last clean epoch's answer, visibly flagged, rather than a
// silently wrong partial state (see query_service.h for how the merge
// surfaces the flag).

#ifndef DWRS_QUERY_SNAPSHOT_H_
#define DWRS_QUERY_SNAPSHOT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sampling/mergeable_sample.h"
#include "sim/message.h"

namespace dwrs::query {

struct ShardSnapshot {
  // Publisher-assigned publish sequence (1-based, monotone per shard).
  uint64_t publish_seq = 0;
  // Coordinator state version at capture (sim::CoordinatorNode::
  // StateVersion): identifies the delivered-message prefix the content
  // reflects. Frozen while stale.
  uint64_t state_version = 0;
  // Backend step clock at capture. Exact at quiesce points; under
  // pipelined ingestion an upper bound on the prefix the content covers.
  uint64_t steps = 0;
  // Fault-model coherence: highest site crash epoch folded into this
  // shard (0 on a reliable transport), and whether the content had to be
  // frozen at the last clean state (session gaps unresolved / data loss
  // detected).
  uint64_t session_epoch = 0;
  bool stale = false;

  // The shard coordinator's mergeable summary, stamped with
  // state_version by the exporter.
  MergeableSample sample;
  // Derived scalars served without touching the coordinator again.
  double threshold = 0.0;
  double l1_estimate = 0.0;
  sim::MessageStats messages;
};

class SnapshotPublisher {
 public:
  // ring_depth = R > 0 (checked): how many published snapshots stay
  // readable for ReadAsOf. 1 degenerates to a latest-only cell.
  explicit SnapshotPublisher(int ring_depth = 1);
  ~SnapshotPublisher();

  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  // Writer thread only. Assigns the publish sequence and makes `snap`
  // the snapshot subsequent Read() calls return. When snap.stale is set
  // the content fields are replaced by the last clean publish's (see the
  // header comment); the coherence stamps (steps, session_epoch,
  // messages) stay the caller's.
  void Publish(ShardSnapshot snap);

  // Any thread, lock-free. Copies the latest published snapshot into
  // `*out`; false iff nothing has been published yet. Successive reads
  // (from one thread) see monotonically nondecreasing publish_seq.
  bool Read(ShardSnapshot* out) const;

  // Any thread, lock-free. Copies the newest retained snapshot whose
  // state_version <= max_state_version into `*out`. False when nothing
  // has been published, or when every snapshot still in the ring is
  // newer than max_state_version — i.e. the requested version has been
  // evicted past the ring depth; history that far back is gone.
  bool ReadAsOf(uint64_t max_state_version, ShardSnapshot* out) const;

  // Any thread. Blocks until a publish with state_version >= version
  // lands or `timeout` elapses; true iff the version was reached. The
  // caller is expected to re-read after a true return. Pairs with the
  // engine's publish hook: publishes happen on the coordinator thread
  // at quiesce points, so waiting here is waiting on ingestion itself.
  bool WaitForStateVersion(uint64_t version,
                           std::chrono::nanoseconds timeout) const;

  // Publishes performed so far (writer-exact; readers see it lag at most
  // one in-flight publish behind Read()).
  uint64_t publish_count() const {
    return publish_count_.load(std::memory_order_acquire);
  }

  // Cheap revalidation probe for the merge cache: the publish sequence
  // of the most recent publish, without copying the snapshot. It is
  // stored before the ring swap, so it never lags a read: a thread that
  // read publish n then probes >= n. It may lead the ring by one
  // in-flight publish, which only turns a cache hit into a miss — never
  // a wrong or older hit, because the cache key is compared against it.
  uint64_t latest_seq() const {
    return latest_seq_.load(std::memory_order_seq_cst);
  }
  // The state version of the most recent publish. Stored after the ring
  // swap (it may lag Read() by one in-flight publish), so a freshness
  // waiter that sees version v and re-reads finds a snapshot >= v.
  uint64_t latest_state_version() const {
    return latest_version_.load(std::memory_order_seq_cst);
  }

  int ring_depth() const { return static_cast<int>(ring_.size()); }

  // Writer thread only: the state_version of the most recent publish
  // (after any degraded-content freezing), 0 before the first. Lets the
  // writer skip republishing unchanged state without copying a
  // snapshot back out.
  uint64_t published_state_version() const { return published_state_version_; }

  // Shard label stamped on this publisher's flight-recorder events
  // (writer thread only; set before the first Publish).
  void set_trace_shard(int shard) { trace_shard_ = shard; }

 private:
  struct Node {
    ShardSnapshot snap;
    // Readers currently copying this node's content.
    std::atomic<uint64_t> refs{0};
    // Writer-owned: true while some ring slot references this node
    // (such nodes are live and must not be recycled).
    bool in_ring = false;
  };

  Node* AcquireFreeNode();

  // R live slots; slot (publish_seq - 1) % R holds that publish.
  std::vector<std::atomic<Node*>> ring_;
  std::atomic<Node*> latest_{nullptr};
  std::atomic<uint64_t> latest_seq_{0};
  std::atomic<uint64_t> latest_version_{0};
  std::atomic<uint64_t> publish_count_{0};

  // Freshness-SLO waiters. The publish path pays one relaxed-ish atomic
  // load when nobody waits; the mutex is touched only around the
  // condition variable.
  mutable std::mutex wait_mutex_;
  mutable std::condition_variable wait_cv_;
  mutable std::atomic<uint32_t> waiters_{0};

  // Writer-owned. Nodes live until destruction (never freed while a
  // reader could hold a stale pointer); the pool grows past its initial
  // size only while readers pin every spare node.
  std::vector<std::unique_ptr<Node>> pool_;
  // Writer-owned mirror of ring_ contents (avoids atomic loads when
  // evicting).
  std::vector<Node*> ring_mirror_;
  uint64_t next_seq_ = 0;
  uint64_t published_state_version_ = 0;
  int trace_shard_ = 0;
  ShardSnapshot last_clean_;
  bool have_clean_ = false;
};

}  // namespace dwrs::query

#endif  // DWRS_QUERY_SNAPSHOT_H_
