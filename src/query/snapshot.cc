#include "query/snapshot.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace dwrs::query {

SnapshotPublisher::SnapshotPublisher(int ring_depth) {
  DWRS_CHECK_GT(ring_depth, 0);
  ring_ = std::vector<std::atomic<Node*>>(static_cast<size_t>(ring_depth));
  for (auto& slot : ring_) slot.store(nullptr, std::memory_order_relaxed);
  ring_mirror_.assign(ring_.size(), nullptr);
  // Seed a few nodes; AcquireFreeNode grows the pool on demand, so a
  // deep ring only pays for the slots it actually fills. Steady state
  // settles at ring_depth + 1 + (concurrently pinned spares).
  const size_t initial = std::min(ring_.size() + 2, size_t{4});
  pool_.reserve(ring_.size() + 2);
  for (size_t i = 0; i < initial; ++i) {
    pool_.push_back(std::make_unique<Node>());
  }
}

SnapshotPublisher::~SnapshotPublisher() {
  // Contract: readers are gone by destruction time (they hold references
  // to the publisher itself). A pinned node here means a reader is still
  // alive and about to use freed memory — fail loudly instead.
  for (const auto& node : pool_) {
    DWRS_CHECK_EQ(node->refs.load(), 0u)
        << " SnapshotPublisher destroyed while a reader is mid-copy";
  }
}

SnapshotPublisher::Node* SnapshotPublisher::AcquireFreeNode() {
  for (const auto& node : pool_) {
    // in_ring is writer-owned: live nodes (any ring slot, including
    // latest) are never recycled.
    if (node->in_ring) continue;
    // seq_cst pairs with the readers' pin/validate sequence: a reader
    // whose increment is not visible here is guaranteed to fail its
    // slot-pointer validation and back off without touching the
    // content (see Read()/ReadAsOf()).
    if (node->refs.load(std::memory_order_seq_cst) == 0) return node.get();
  }
  // Every spare node is pinned by a reader right now. Grow instead of
  // waiting: the writer is the coordinator thread and must not block on
  // the query path.
  pool_.push_back(std::make_unique<Node>());
  return pool_.back().get();
}

void SnapshotPublisher::Publish(ShardSnapshot snap) {
  snap.publish_seq = ++next_seq_;
  if (snap.stale && have_clean_) {
    // Freeze the content at the last clean state; keep the caller's
    // coherence stamps so observers still see the shard's liveness.
    ShardSnapshot frozen = last_clean_;
    frozen.publish_seq = snap.publish_seq;
    frozen.stale = true;
    frozen.steps = snap.steps;
    frozen.session_epoch = snap.session_epoch;
    frozen.messages = snap.messages;
    snap = std::move(frozen);
  } else if (!snap.stale) {
    last_clean_ = snap;
    have_clean_ = true;
  }
  published_state_version_ = snap.state_version;
  if (obs::TracingEnabled()) {
    obs::TraceEvent event;
    event.type = obs::EventType::kSnapshotPublish;
    event.shard = static_cast<int16_t>(trace_shard_);
    event.a = snap.publish_seq;
    event.epoch = static_cast<uint32_t>(snap.session_epoch);
    event.step = snap.steps;
    event.x = snap.threshold;
    event.dir = snap.stale ? 1 : 0;
    obs::Emit(event);
  }
  const uint64_t seq = snap.publish_seq;
  const uint64_t version = snap.state_version;
  Node* node = AcquireFreeNode();
  node->snap = std::move(snap);
  // The sequence probe is stored BEFORE the slot/latest swaps, so it
  // may lead the ring by one in-flight publish but never lags a read: a
  // reader that copied publish n then probes >= n. A leading probe only
  // turns a cache hit into a miss; a lagging one would let a reader that
  // was just served publish n hit a cached cut holding n - 1.
  latest_seq_.store(seq, std::memory_order_seq_cst);
  const size_t slot = static_cast<size_t>((seq - 1) % ring_.size());
  Node* evicted = ring_mirror_[slot];
  node->in_ring = true;
  ring_[slot].store(node, std::memory_order_seq_cst);
  if (evicted != nullptr) evicted->in_ring = false;
  ring_mirror_[slot] = node;
  latest_.store(node, std::memory_order_seq_cst);
  // The version probe is stored AFTER the swaps: a waiter released by it
  // (WaitForStateVersion) must find the new snapshot when it re-reads.
  latest_version_.store(version, std::memory_order_seq_cst);
  publish_count_.fetch_add(1, std::memory_order_release);
  // Freshness-SLO waiters: only touch the mutex when somebody is
  // actually waiting. The seq_cst version store above pairs with the
  // waiter's seq_cst registration: either the waiter sees the new
  // version on its pre-wait check, or this load sees its registration.
  if (waiters_.load(std::memory_order_seq_cst) != 0) {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    wait_cv_.notify_all();
  }
}

bool SnapshotPublisher::Read(ShardSnapshot* out) const {
  for (;;) {
    Node* node = latest_.load(std::memory_order_seq_cst);
    if (node == nullptr) return false;
    node->refs.fetch_add(1, std::memory_order_seq_cst);
    if (latest_.load(std::memory_order_seq_cst) == node) {
      // The node was (still) live after our pin: the writer's content
      // write happened before the seq_cst publish this load read from,
      // and the writer cannot reclaim the node until the release
      // decrement below.
      *out = node->snap;
      node->refs.fetch_sub(1, std::memory_order_release);
      return true;
    }
    // The writer swapped concurrently; our pin may be on a node it is
    // about to rewrite. Back off without touching the content.
    node->refs.fetch_sub(1, std::memory_order_release);
  }
}

bool SnapshotPublisher::ReadAsOf(uint64_t max_state_version,
                                 ShardSnapshot* out) const {
  // Scan every slot with the same pin/validate protocol Read() uses and
  // keep the newest coherent copy that satisfies the version bound. A
  // slot that rotates under us is re-read (each retry means a fresh
  // publish landed); a slot whose content turns out newer than the
  // bound is simply not a candidate. Slot ABA (see header) only ever
  // yields a coherent, newer snapshot — the stamps in the copy are what
  // we filter on, so it is indistinguishable from reading the slot
  // after the rotation.
  bool found = false;
  for (const auto& slot : ring_) {
    for (;;) {
      Node* node = slot.load(std::memory_order_seq_cst);
      if (node == nullptr) break;
      node->refs.fetch_add(1, std::memory_order_seq_cst);
      if (slot.load(std::memory_order_seq_cst) != node) {
        node->refs.fetch_sub(1, std::memory_order_release);
        continue;  // the writer rotated this slot; re-read it
      }
      if (node->snap.state_version <= max_state_version &&
          (!found || node->snap.publish_seq > out->publish_seq)) {
        *out = node->snap;
        found = true;
      }
      node->refs.fetch_sub(1, std::memory_order_release);
      break;
    }
  }
  return found;
}

bool SnapshotPublisher::WaitForStateVersion(
    uint64_t version, std::chrono::nanoseconds timeout) const {
  if (latest_version_.load(std::memory_order_seq_cst) >= version) return true;
  if (timeout <= std::chrono::nanoseconds::zero()) return false;
  // Register BEFORE the predicate check inside the wait: the publisher
  // checks waiters_ after storing the version (both seq_cst), so either
  // it sees our registration and notifies under the lock, or our
  // predicate load sees its version store — no lost wakeup.
  waiters_.fetch_add(1, std::memory_order_seq_cst);
  bool reached;
  {
    std::unique_lock<std::mutex> lock(wait_mutex_);
    reached = wait_cv_.wait_for(lock, timeout, [&] {
      return latest_version_.load(std::memory_order_seq_cst) >= version;
    });
  }
  waiters_.fetch_sub(1, std::memory_order_release);
  return reached;
}

}  // namespace dwrs::query
