// Inter-thread channels of the concurrent execution engine.
//
// Two primitives cover the engine's three channel kinds:
//
//   SpscRing<T>  — lock-free bounded single-producer/single-consumer ring.
//                  Used for the hot item path (feeder -> logical site),
//                  where each slot holds a whole ingestion batch so the
//                  per-item synchronization cost is one release store and
//                  one acquire load amortized over the batch. The
//                  consumer role migrates between dispatching threads
//                  (pool workers, or the flushing thread under caller-
//                  runs dispatch); the scheduler's state-machine RMW
//                  chain (scheduler.h) provides the happens-before edge
//                  that keeps the ring single-consumer at any instant.
//   Channel<T>   — mutex+condvar FIFO, multi-producer, optionally bounded
//                  with blocking producers (backpressure). Used for the
//                  site->coordinator MPSC message channel (bounded: a slow
//                  coordinator stalls the sites, which stalls ingestion)
//                  and for the coordinator->site control channel
//                  (unbounded: the coordinator must never block on a site
//                  that is itself blocked sending upstream, which would
//                  deadlock the site⇄coordinator cycle; control volume is
//                  protocol-bounded at O(k log W) anyway).
//
// Neither primitive parks its consumer: engine workers multiplex several
// channels, so consumers poll with TryPop and park on the scheduler's
// shared bus (see scheduler.h); producers wake a worker after a push.

#ifndef DWRS_ENGINE_CHANNELS_H_
#define DWRS_ENGINE_CHANNELS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "util/check.h"

namespace dwrs::engine {

// Lock-free bounded SPSC ring buffer. Exactly one producer thread may call
// TryPush and exactly one consumer thread may call TryPop; Empty() is safe
// from any thread (used by quiesce checks, which additionally rely on the
// pushed/done counters kept by the workers).
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t min_capacity) {
    size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return slots_.size(); }

  // Moves from `v` and returns true iff there was a free slot.
  bool TryPush(T& v) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == slots_.size()) {
      return false;
    }
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (tail_.load(std::memory_order_acquire) == head) return false;
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  bool Empty() const {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  uint64_t mask_ = 0;
  // Separate cache lines so producer and consumer do not false-share.
  alignas(64) std::atomic<uint64_t> tail_{0};  // next write (producer-owned)
  alignas(64) std::atomic<uint64_t> head_{0};  // next read (consumer-owned)
};

// Mutex-protected FIFO. Multi-producer; the engine uses it single-consumer.
// capacity == 0 means unbounded (Push never blocks); otherwise Push blocks
// while full — the engine's backpressure edge. Messages are rare by
// design (the protocol's entire point is that sites mostly stay silent),
// so a lock per message is cheap next to the per-item work it protects.
template <typename T>
class Channel {
 public:
  explicit Channel(size_t capacity = 0) : capacity_(capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Returns false iff the channel was closed (shutdown); blocks while a
  // bounded channel is full. `stall_counter`, if given, counts blocking
  // episodes: one increment per Push that had to wait, however many
  // condvar wakeups (spurious or racing) it takes before a slot frees up.
  bool Push(T v, std::atomic<uint64_t>* stall_counter = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    bool stalled = false;
    while (capacity_ != 0 && queue_.size() >= capacity_ && !closed_) {
      if (!stalled && stall_counter != nullptr) {
        stall_counter->fetch_add(1, std::memory_order_relaxed);
      }
      stalled = true;
      // Counted under the mutex and wait() releases it atomically, so a
      // parked producer is always visible to TryPop's waiter check below.
      ++waiters_;
      not_full_.wait(lock);
      --waiters_;
    }
    if (closed_) return false;
    queue_.push_back(std::move(v));
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  bool TryPop(T* out) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    size_.fetch_sub(1, std::memory_order_relaxed);
    // Producers only park while the channel is full, so on the vastly
    // common uncontended pop there is nobody to wake and the
    // (syscall-prone) notify is skipped entirely. The explicit waiter
    // count — maintained under this same mutex — makes the skip exact:
    // notify_all whenever anyone waits, never otherwise.
    if (waiters_ > 0) not_full_.notify_all();
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_full_.notify_all();
  }

  // Lock-free size hint: lets a consumer skip the mutex entirely on its
  // per-item freshness poll when the channel is (almost certainly) empty.
  size_t SizeApprox() const { return size_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::deque<T> queue_;
  std::atomic<size_t> size_{0};
  const size_t capacity_;
  size_t waiters_ = 0;  // producers parked in Push (guarded by mutex_)
  bool closed_ = false;
};

// Engine-wide progress bus. Workers publish "I completed a unit of work"
// events; the quiesce waiter sleeps on the condvar and re-evaluates the
// pushed==done counters on every event. One mutex acquisition per item
// batch / per message keeps this off the per-item path.
class QuiesceBus {
 public:
  void NotifyProgress() {
    std::lock_guard<std::mutex> lock(mutex_);
    cv_.notify_all();
  }

  // Blocks until `quiet` (evaluated under the bus mutex) returns true.
  template <typename Pred>
  void WaitUntil(Pred quiet) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, quiet);
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace dwrs::engine

#endif  // DWRS_ENGINE_CHANNELS_H_
