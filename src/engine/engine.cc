#include "engine/engine.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace dwrs::engine {

Engine::Engine(const EngineConfig& config)
    : config_(config),
      site_nodes_(static_cast<size_t>(config.num_sites), nullptr),
      pending_(static_cast<size_t>(config.num_sites)) {
  DWRS_CHECK_GT(config.num_sites, 0);
  DWRS_CHECK_GT(config.batch_size, 0u);
  DWRS_CHECK_GT(config.item_queue_batches, 0u);
  DWRS_CHECK_GT(config.message_queue_capacity, 0u);
  DWRS_CHECK_GT(config.control_poll_stride, 0u);
  // Pending buffers grow lazily: an eager reserve here would pin
  // batch_size * sizeof(Item) bytes per site before any item arrives —
  // at the virtualized-site scale (k = 10^5) that is hundreds of MB of
  // mostly-idle buffers. Hot sites reach full capacity after one
  // handoff/recycle cycle anyway.
}

Engine::~Engine() { Shutdown(); }

void Engine::AttachSite(int site, sim::SiteNode* node) {
  DWRS_CHECK(site >= 0 && site < config_.num_sites);
  DWRS_CHECK(node != nullptr);
  DWRS_CHECK(!started_) << " attach before the first Push/Run/Flush";
  site_nodes_[static_cast<size_t>(site)] = node;
}

void Engine::AttachCoordinator(sim::CoordinatorNode* node) {
  DWRS_CHECK(node != nullptr);
  DWRS_CHECK(!started_) << " attach before the first Push/Run/Flush";
  coordinator_node_ = node;
}

void Engine::SetSnapshotHook(std::function<void()> hook) {
  DWRS_CHECK(!started_) << " install the hook before the first Push/Run/Flush";
  snapshot_hook_ = std::move(hook);
}

void Engine::Start() {
  if (started_) return;
  DWRS_CHECK(coordinator_node_ != nullptr) << " no coordinator attached";
  coordinator_worker_ = std::make_unique<CoordinatorWorker>(
      coordinator_node_, config_.message_queue_capacity, &bus_,
      config_.trace_shard);
  if (snapshot_hook_) coordinator_worker_->SetSnapshotHook(snapshot_hook_);
  scheduler_ = std::make_unique<Scheduler>(config_, &bus_, &stats_);
  for (size_t i = 0; i < site_nodes_.size(); ++i) {
    DWRS_CHECK(site_nodes_[i] != nullptr) << " site " << i << " not attached";
    scheduler_->AttachSite(static_cast<int>(i), site_nodes_[i]);
  }
  coordinator_worker_->Start();
  scheduler_->Start();
  started_ = true;
}

void Engine::Push(int site, const Item& item) {
  DWRS_CHECK(site >= 0 && site < config_.num_sites);
  DWRS_CHECK(!shut_down_) << " engine already shut down";
  if (!started_) Start();
  Append(site, item);
}

void Engine::Push(int site, const Item* items, size_t n) {
  DWRS_CHECK(site >= 0 && site < config_.num_sites);
  DWRS_CHECK(!shut_down_) << " engine already shut down";
  if (!started_) Start();
  ItemBatch& batch = pending_[static_cast<size_t>(site)];
  while (n > 0) {
    const size_t take = std::min(n, config_.batch_size - batch.size());
    batch.insert(batch.end(), items, items + take);
    items += take;
    n -= take;
    if (batch.size() >= config_.batch_size) HandOffBatch(site);
  }
}

void Engine::RefillPending(int site) {
  // Pull a recycled buffer off the site worker's free list; allocate only
  // on a cold start (the pool warms to item_queue_batches buffers and
  // then cycles them indefinitely: zero steady-state heap traffic).
  ItemBatch& batch = pending_[static_cast<size_t>(site)];
  if (!scheduler_->TryGetRecycled(site, &batch)) {
    batch = ItemBatch();  // cold start: grows lazily, then recycles warm
    stats_.batch_pool_misses.fetch_add(1, std::memory_order_relaxed);
  }
}

void Engine::HandOffBatch(int site, bool wake) {
  ItemBatch& batch = pending_[static_cast<size_t>(site)];
  if (batch.empty()) return;
  const uint64_t n = batch.size();
  // The step clock advances when events become visible to workers: one
  // atomic add per batch, the engine's amortization of per-item cost.
  steps_.fetch_add(n, std::memory_order_relaxed);
  stats_.items_ingested.fetch_add(n, std::memory_order_relaxed);
  stats_.batches_ingested.fetch_add(1, std::memory_order_relaxed);
  ItemBatch handoff = std::move(batch);
  RefillPending(site);
  scheduler_->PushBatch(site, std::move(handoff), &stats_.ingest_stalls,
                        wake);
}

bool Engine::AllIdle() const {
  // Two aggregate counter pairs, not an O(k) per-site walk — the quiesce
  // predicate runs on every progress event.
  return coordinator_worker_->Idle() && scheduler_->Idle();
}

uint64_t Engine::TotalUnitsPushed() const {
  return coordinator_worker_->units_pushed() + scheduler_->units_pushed();
}

void Engine::WaitQuiesce() {
  // Double scan: all pushed==done twice with no work created in between
  // guarantees there was an instant with nothing queued and nothing in
  // flight (a unit's pushed counter is incremented before it is enqueued
  // and its done counter only after processing — including the pushes the
  // processing itself performed — completed).
  bus_.WaitUntil([this] {
    if (!AllIdle()) return false;
    const uint64_t created = TotalUnitsPushed();
    return AllIdle() && TotalUnitsPushed() == created;
  });
  stats_.quiesces.fetch_add(1, std::memory_order_relaxed);
  // Legal for the same reason as CollectSiteCounters, and O(1).
  stats_.wasted_messages.store(coordinator_node_->wasted_messages(),
                               std::memory_order_relaxed);
}

void Engine::CollectSiteCounters() {
  // Legal only at quiesce points (workers parked, happens-before edge
  // established by the pushed/done handshake): fold every endpoint's
  // hot-path counters into the engine stats.
  sim::SiteHotPathCounters total;
  for (const sim::SiteNode* node : site_nodes_) {
    total += node->HotPathCounters();
  }
  stats_.keys_decided.store(total.keys_decided, std::memory_order_relaxed);
  stats_.key_bits_consumed.store(total.key_bits_consumed,
                                 std::memory_order_relaxed);
  stats_.skips_taken.store(total.skips_taken, std::memory_order_relaxed);
}

void Engine::HandOffAll(bool caller_runs) {
  DWRS_CHECK(!shut_down_) << " engine already shut down";
  if (!started_) Start();
  for (int site = 0; site < config_.num_sites; ++site) {
    HandOffBatch(site, /*wake=*/!caller_runs);
  }
  if (caller_runs) scheduler_->RunQueuedSites();
}

void Engine::Flush() {
  // Caller-runs: this thread is about to block until the sites drain, so
  // it runs them itself rather than wake a worker and wait for it — on a
  // busy or single CPU that wake is a context switch per flush.
  HandOffAll(/*caller_runs=*/true);
  WaitQuiesce();
  CollectSiteCounters();
}

void Engine::Run(const Workload& workload,
                 const std::function<void(uint64_t)>& on_step) {
  DWRS_CHECK_EQ(workload.num_sites(), config_.num_sites);
  DWRS_CHECK(!shut_down_) << " engine already shut down";
  if (!started_) Start();
  const bool step_synchronous = on_step != nullptr;
  // Events left before the next quiesce, pinned at 1 step-synchronously.
  // A local, not a member: the per-event cost stays one decrement and
  // branch that the compiler keeps in a register.
  uint64_t countdown = step_synchronous ? 1 : pacer_.interval();
  const auto wasted = [this] {
    return stats_.wasted_messages.load(std::memory_order_relaxed);
  };
  for (uint64_t i = 0; i < workload.size(); ++i) {
    const WorkloadEvent& event = workload.event(i);
    Append(event.site, event.item);  // sites checked by Workload
    if (--countdown != 0) continue;
    if (step_synchronous) {
      Flush();
      on_step(i + 1);
      countdown = 1;
    } else {
      // A paced quiesce: Flush without its O(k) visit of every site.
      HandOffAll(/*caller_runs=*/true);
      WaitQuiesce();
      countdown = pacer_.Next(wasted());
    }
  }
  Flush();
  if (!step_synchronous) pacer_.Next(wasted());
}

void Engine::Shutdown() {
  if (!started_ || shut_down_) {
    shut_down_ = true;
    return;
  }
  // Order matters: closing the coordinator inbox first unblocks any pool
  // worker stalled in an upstream send, so the pool joins cleanly.
  coordinator_worker_->RequestStop();
  scheduler_->RequestStop();
  scheduler_->Join();
  coordinator_worker_->Join();
  shut_down_ = true;
}

void Engine::Account(const sim::Payload& msg, bool upstream) {
  if (upstream) {
    stats_.site_to_coord.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.coord_to_site.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.words.fetch_add(msg.words, std::memory_order_relaxed);
  if (msg.type < stats_.by_type.size()) {
    stats_.by_type[msg.type].fetch_add(1, std::memory_order_relaxed);
  }
}

void Engine::SendToCoordinator(int site, const sim::Payload& msg) {
  DWRS_CHECK(site >= 0 && site < config_.num_sites);
  Account(msg, /*upstream=*/true);
  coordinator_worker_->PushMessage(site, msg, &stats_.upstream_stalls);
}

void Engine::SendToSite(int site, const sim::Payload& msg) {
  DWRS_CHECK(site >= 0 && site < config_.num_sites);
  Account(msg, /*upstream=*/false);
  scheduler_->PushControl(site, msg);
}

void Engine::Broadcast(const sim::Payload& msg) {
  stats_.broadcast_events.fetch_add(1, std::memory_order_relaxed);
  for (int site = 0; site < config_.num_sites; ++site) SendToSite(site, msg);
}

}  // namespace dwrs::engine
