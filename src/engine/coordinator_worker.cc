#include "engine/coordinator_worker.h"

#include "obs/trace.h"
#include "util/check.h"

namespace dwrs::engine {

CoordinatorWorker::CoordinatorWorker(sim::CoordinatorNode* node,
                                     size_t queue_capacity, QuiesceBus* bus,
                                     int trace_shard)
    : node_(node),
      bus_(bus),
      queue_capacity_(queue_capacity),
      trace_shard_(trace_shard),
      inbox_(queue_capacity) {
  DWRS_CHECK(node != nullptr);
  DWRS_CHECK(bus != nullptr);
  DWRS_CHECK_GT(queue_capacity, 0u);
}

CoordinatorWorker::~CoordinatorWorker() {
  RequestStop();
  Join();
}

void CoordinatorWorker::Start() {
  DWRS_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { ThreadMain(); });
}

void CoordinatorWorker::RequestStop() {
  closed_.store(true);
  inbox_.Close();  // unblocks site workers stalled in PushMessage
  Wake();
}

void CoordinatorWorker::Join() {
  if (thread_.joinable()) thread_.join();
}

void CoordinatorWorker::PushMessage(int site, const sim::Payload& msg,
                                    std::atomic<uint64_t>* stall_counter) {
  pushed_.fetch_add(1);
  // The size hint mirrors the full-queue condition Push blocks on; an
  // occasional false positive/negative only costs one trace event.
  if (obs::TracingEnabled() && inbox_.SizeApprox() >= queue_capacity_) {
    obs::TraceEvent event;
    event.type = obs::EventType::kBackpressureStall;
    event.shard = static_cast<int16_t>(trace_shard_);
    event.site = site;
    event.a = inbox_.SizeApprox();
    obs::Emit(event);
  }
  if (!inbox_.Push(UpstreamMessage{site, msg}, stall_counter)) {
    pushed_.fetch_sub(1);  // closed during shutdown
    return;
  }
  Wake();
}

void CoordinatorWorker::Wake() {
  std::lock_guard<std::mutex> lock(park_mutex_);
  park_cv_.notify_one();
}

bool CoordinatorWorker::DrainOnce() {
  // A pass takes at most one inbox's worth, so producers refilling the
  // inbox as fast as it drains cannot postpone the pass's publish.
  UpstreamMessage m;
  uint64_t processed = 0;
  while (processed < queue_capacity_ && inbox_.TryPop(&m)) {
    node_->OnMessage(m.site, m.msg);
    ++processed;
  }
  if (processed == 0) return false;
  // Publish once per pass, before counting the pass done: a quiesce
  // waiter that observes pushed == done then reads a snapshot that covers
  // every processed message (see the header comment).
  if (snapshot_hook_) snapshot_hook_();
  done_.fetch_add(processed);
  bus_->NotifyProgress();
  return true;
}

void CoordinatorWorker::ThreadMain() {
  for (;;) {
    if (DrainOnce()) continue;
    std::unique_lock<std::mutex> lock(park_mutex_);
    if (closed_.load()) break;
    if (inbox_.SizeApprox() > 0) continue;
    park_cv_.wait(lock);
  }
}

}  // namespace dwrs::engine
