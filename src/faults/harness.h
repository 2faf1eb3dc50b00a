// Fault harness: assembles the reliable protocol stack — endpoints
// wrapped in reliability sessions, over a FaultyTransport, over either
// execution backend — runs a workload through it, and reconciles at end
// of stream. FaultyRun is the only place that stack is wired; the
// durable harness (src/durability/) runs the same stack with its
// write-ahead coordinator decorator in front of the session.
//
//   faults::FaultyRun<faults::WsworFaultTraits> run(config, fault_config,
//                                                   faults::Backend::kSim);
//   run.Run(workload);              // stream + end-of-stream reconcile
//   run.report().clean              // no irrecoverable loss anywhere
//   run.coordinator().Sample();     // exact SWOR of the delivered stream
//
// The reconcile models partial synchrony: after the stream ends the
// network heals (faults disabled), withheld messages are released, and
// sites retransmit until every stamped message is acked. A run is
// `clean` iff nothing was irrecoverably lost — every un-clean cause
// (messages wiped by a crash) is individually counted, so degraded
// results are always detectable, never silent.
//
// Determinism: given (protocol seed, fault seed, workload), two runs on
// the same backend are bit-identical, and the simulator and the
// step-synchronous engine produce the same delivery transcript.

#ifndef DWRS_FAULTS_HARNESS_H_
#define DWRS_FAULTS_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/coordinator.h"
#include "core/site.h"
#include "engine/engine.h"
#include "faults/fault_schedule.h"
#include "faults/faulty_transport.h"
#include "faults/session.h"
#include "l1/l1_tracker.h"
#include "obs/tracing_transport.h"
#include "random/rng.h"
#include "sampling/mergeable_sample.h"
#include "sim/deployment.h"
#include "sim/node.h"
#include "sim/runtime.h"
#include "stream/sharding.h"
#include "stream/workload.h"
#include "unweighted/distributed_swor.h"
#include "util/check.h"

namespace dwrs::faults {

enum class Backend { kSim, kEngine };

// Independent randomness per site incarnation: a restarted site must not
// replay its previous key stream. Incarnation `epoch` >= 1 takes the
// epoch-th SplitMix64 output of a stream started at `base`.
inline uint64_t RestartSeed(uint64_t base, uint32_t epoch) {
  if (epoch == 0) return base;
  uint64_t state = base + kSplitMix64Gamma * (epoch - 1);
  return SplitMix64(&state);
}

// Aggregated outcome of a faulty run.
struct RunReport {
  uint64_t transcript_hash = 0;
  uint64_t delivered = 0;
  uint64_t crashes = 0;
  uint64_t crash_detections = 0;
  uint64_t resyncs_sent = 0;
  uint64_t lost_unacked = 0;  // wiped by crashes; upper-bounds real loss
  uint64_t items_lost = 0;    // arrivals at down sites
  uint64_t duplicates_dropped = 0;
  uint64_t gaps_detected = 0;
  uint64_t nacks_sent = 0;
  // Session-layer counters that used to live only as per-session local
  // state; surfaced so degraded-mode traffic is quantifiable end to end.
  uint64_t retransmits_sent = 0;       // go-back-N replay messages
  uint64_t stale_epoch_dropped = 0;    // pre-crash leftovers discarded
  uint64_t messages_dropped_down = 0;  // arrivals at a dead process
  // Fault-transport verdict totals (both directions combined).
  uint64_t faults_forwarded = 0;
  uint64_t faults_dropped = 0;
  uint64_t faults_duplicated = 0;
  uint64_t faults_delayed = 0;
  // Durability counters (src/durability/): zero unless the run went
  // through a DurableWswor harness with process kills enabled.
  uint64_t process_kills = 0;     // whole-shard kill -9 events
  uint64_t recoveries = 0;        // successful checkpoint+WAL recoveries
  uint64_t wal_records_logged = 0;
  // WAL tail records through each recovery's durable step D, checkpoint
  // marks dropped: what its re-feed was checked against.
  uint64_t wal_records_replayed = 0;
  uint64_t checkpoints_written = 0;
  // False iff a recovery could not trust its WAL tail: a record would not
  // decode or sat past a torn segment, or the re-feed of (B, D] did not
  // regenerate the tail byte for byte (a record differed, or one was left
  // over at D). A flagged (never silent) degraded result; a recovery's
  // verdict is final once its Run passes D.
  bool recovery_consistent = true;
  // True iff every stamped message was delivered exactly once: no buffer
  // was wiped mid-flight and reconcile drained everything. A clean run's
  // sample is an exact SWOR over the items processed by live sites.
  bool clean = false;
};

// The summed RunReport counters, in schema order: the one field list
// the sharded fold (FoldShardReports) and the metric export
// (obs::AppendFaultReport) both walk.
struct RunReportCounter {
  const char* name;
  uint64_t RunReport::*field;
};
inline constexpr RunReportCounter kRunReportCounters[] = {
    {"delivered", &RunReport::delivered},
    {"crashes", &RunReport::crashes},
    {"crash_detections", &RunReport::crash_detections},
    {"resyncs_sent", &RunReport::resyncs_sent},
    {"lost_unacked", &RunReport::lost_unacked},
    {"items_lost", &RunReport::items_lost},
    {"duplicates_dropped", &RunReport::duplicates_dropped},
    {"gaps_detected", &RunReport::gaps_detected},
    {"nacks_sent", &RunReport::nacks_sent},
    {"retransmits_sent", &RunReport::retransmits_sent},
    {"stale_epoch_dropped", &RunReport::stale_epoch_dropped},
    {"messages_dropped_down", &RunReport::messages_dropped_down},
    {"faults_forwarded", &RunReport::faults_forwarded},
    {"faults_dropped", &RunReport::faults_dropped},
    {"faults_duplicated", &RunReport::faults_duplicated},
    {"faults_delayed", &RunReport::faults_delayed},
    {"process_kills", &RunReport::process_kills},
    {"recoveries", &RunReport::recoveries},
    {"wal_records_logged", &RunReport::wal_records_logged},
    {"wal_records_replayed", &RunReport::wal_records_replayed},
    {"checkpoints_written", &RunReport::checkpoints_written},
};

// A sharded run's report: counters add over the shards, `clean` and
// `recovery_consistent` hold iff they hold in every shard, and
// `transcript_hash` FNV-folds the shard hashes in shard order.
RunReport FoldShardReports(const std::vector<RunReport>& shards);

// --- per-protocol traits ----------------------------------------------

struct WsworFaultTraits {
  using Config = WsworConfig;
  using Site = WsworSite;
  using Coordinator = WsworCoordinator;
  static std::unique_ptr<Coordinator> MakeCoordinator(
      const Config& config, sim::Transport* transport, uint64_t seed) {
    return std::make_unique<Coordinator>(config, transport, seed);
  }
  static std::vector<uint64_t> SampleIds(const Coordinator& coordinator) {
    std::vector<uint64_t> ids;
    for (const KeyedItem& ki : coordinator.Sample()) ids.push_back(ki.item.id);
    return ids;
  }
};

struct UsworFaultTraits {
  using Config = UsworConfig;
  using Site = UsworSite;
  using Coordinator = UsworCoordinator;
  static std::unique_ptr<Coordinator> MakeCoordinator(
      const Config& config, sim::Transport* transport, uint64_t /*seed*/) {
    return std::make_unique<Coordinator>(config, transport);
  }
  static std::vector<uint64_t> SampleIds(const Coordinator& coordinator) {
    std::vector<uint64_t> ids;
    for (const Item& item : coordinator.Sample()) ids.push_back(item.id);
    return ids;
  }
};

struct L1FaultTraits {
  using Config = L1TrackerConfig;
  using Site = L1Site;
  using Coordinator = WsworCoordinator;
  static std::unique_ptr<Coordinator> MakeCoordinator(
      const Config& config, sim::Transport* transport, uint64_t seed) {
    // Same mapping L1Tracker itself uses; its delivery_delay field is a
    // property of the reliable simulated network and is superseded here
    // by the FaultConfig's delay schedule.
    return std::make_unique<Coordinator>(L1CoordinatorConfig(config),
                                         transport, seed);
  }
  static std::vector<uint64_t> SampleIds(const Coordinator& coordinator) {
    return WsworFaultTraits::SampleIds(coordinator);
  }
};

// --- the harness ------------------------------------------------------

template <typename Traits>
class FaultyRun {
 public:
  using Config = typename Traits::Config;
  using Coordinator = typename Traits::Coordinator;
  // Builds the node the backend hands coordinator-bound messages to, in
  // front of the session (the durable harness's write-ahead decorator).
  // The caller owns it and keeps it alive until this stack is destroyed.
  using CoordinatorFront =
      std::function<sim::CoordinatorNode*(Coordinator&, CoordinatorSession&)>;

  // Shard `shard` of `num_shards` (the default is the unsharded stack):
  // `config.num_sites` is the global k, and the stack runs the shard's
  // block of sites with seeds drawn as sim::DeploySharded draws them.
  // The shard index also labels the stack's flight-recorder events.
  // Without `make_front` the backend delivers to the session directly.
  FaultyRun(const Config& config, const FaultConfig& fault_config,
            Backend backend, int shard = 0, int num_shards = 1,
            const CoordinatorFront& make_front = nullptr)
      : schedule_(fault_config),
        num_sites_(ShardTopology(config.num_sites, num_shards)
                       .SiteCount(shard)) {
    if (backend == Backend::kSim) {
      runtime_ = std::make_unique<sim::Runtime>(num_sites_);
    } else {
      engine::EngineConfig engine_config;
      engine_config.num_sites = num_sites_;
      engine_config.trace_shard = shard;
      engine_ = std::make_unique<engine::Engine>(engine_config);
    }
    sim::Transport* inner =
        engine_ ? &engine_->transport()
                : static_cast<sim::Transport*>(&runtime_->network());
    faulty_ = std::make_unique<FaultyTransport>(inner, &schedule_, num_sites_);
    faulty_->set_trace_shard(shard);
    // The coordinator, the sessions and the endpoints send through the
    // tracing decorator, so every message is recorded as it enters the
    // network, before the fault layer's verdict.
    tracing_ = std::make_unique<obs::TracingTransport>(faulty_.get(), shard);

    const ShardTopology topology(config.num_sites, num_shards);
    const sim::DeploymentSeeds seeds = sim::DeriveDeploymentSeeds(
        config.seed, config.num_sites, num_shards);
    const Config shard_config = ShardConfig(config, topology, shard);
    coordinator_ = Traits::MakeCoordinator(
        shard_config, tracing_.get(),
        seeds.coordinator[static_cast<size_t>(shard)]);
    if constexpr (requires { coordinator_->set_trace_shard(shard); }) {
      coordinator_->set_trace_shard(shard);
    }
    coordinator_session_ = std::make_unique<CoordinatorSession>(
        num_sites_, coordinator_.get(), tracing_.get(),
        [this] { return coordinator_->ResyncMessages(); });
    coordinator_session_->set_trace_shard(shard);

    for (int i = 0; i < num_sites_; ++i) {
      const uint64_t seed =
          seeds.site[static_cast<size_t>(topology.GlobalOf(shard, i))];
      site_sessions_.push_back(std::make_unique<SiteSession>(
          i, tracing_.get(), &schedule_,
          [shard_config, i, seed](sim::Transport* upper, uint32_t epoch) {
            return std::make_unique<typename Traits::Site>(
                shard_config, i, upper, RestartSeed(seed, epoch));
          }));
      site_sessions_.back()->set_trace_shard(shard);
      if (runtime_) {
        runtime_->AttachSite(i, site_sessions_.back().get());
      } else {
        engine_->AttachSite(i, site_sessions_.back().get());
      }
    }
    sim::CoordinatorNode* front =
        make_front ? make_front(*coordinator_, *coordinator_session_)
                   : coordinator_session_.get();
    if (runtime_) {
      runtime_->AttachCoordinator(front);
    } else {
      engine_->AttachCoordinator(front);
    }
  }

  ~FaultyRun() {
    // The engine joins its worker threads before any endpoint or the
    // transport stack is destroyed (see the teardown contract in
    // engine/engine.h).
    if (engine_) engine_->Shutdown();
  }

  FaultyRun(const FaultyRun&) = delete;
  FaultyRun& operator=(const FaultyRun&) = delete;

  // Streams the workload and reconciles. Querying the coordinator is
  // legal afterwards. If `on_step` is set, it is invoked after every
  // event with the 1-based prefix length, at a quiesce point of the
  // backend (the engine backend is step-synchronous by construction, so
  // the hook may query the coordinator, the session, and the live-query
  // snapshot layer) — the per-step query transcript the property sweep
  // compares across backends.
  void Run(const Workload& workload,
           const std::function<void(uint64_t)>& on_step = nullptr) {
    DWRS_CHECK_EQ(workload.num_sites(), num_sites_);
    for (uint64_t i = 0; i < workload.size(); ++i) {
      Step(workload.event(i));
      if (on_step) on_step(i + 1);
    }
    Reconcile();
  }

  // Feeds one stream event and returns at the quiesce point after it:
  // the event's whole message exchange has been delivered.
  void Step(const WorkloadEvent& event) {
    if (runtime_) {
      runtime_->Deliver(event);
    } else {
      engine_->Push(event.site, event.item);
      engine_->Flush();
    }
  }

  // Delivers every in-flight message and returns at a quiesce point.
  void Flush() {
    if (runtime_) {
      runtime_->Flush();
    } else {
      engine_->Flush();
    }
  }

  // End-of-stream reconcile under a healed network: release withheld
  // messages, retransmit every unacked message, repeat until drained.
  void Reconcile() {
    faulty_->set_enabled(false);
    for (int round = 0; round < kMaxReconcileRounds; ++round) {
      faulty_->FlushDelayed();
      Flush();
      bool drained = true;
      for (const auto& session : site_sessions_) {
        if (session->unacked_size() != 0) drained = false;
      }
      if (drained) break;
      for (const auto& session : site_sessions_) {
        session->RetransmitAllUnacked();
      }
      Flush();
    }
    for (const auto& session : site_sessions_) {
      DWRS_CHECK_EQ(session->unacked_size(), 0u)
          << " reconcile failed to drain site retransmit buffers";
    }
  }

  RunReport report() const {
    RunReport out;
    out.transcript_hash = coordinator_session_->transcript_hash();
    out.delivered = coordinator_session_->delivered();
    out.crash_detections = coordinator_session_->crash_detections();
    out.resyncs_sent = coordinator_session_->resyncs_sent();
    out.duplicates_dropped = coordinator_session_->duplicates_dropped();
    out.gaps_detected = coordinator_session_->gaps_detected();
    out.nacks_sent = coordinator_session_->nacks_sent();
    out.stale_epoch_dropped = coordinator_session_->stale_epoch_dropped();
    for (const auto& session : site_sessions_) {
      out.crashes += session->crashes();
      out.lost_unacked += session->lost_unacked();
      out.items_lost += session->items_lost();
      out.retransmits_sent += session->retransmits_sent();
      out.messages_dropped_down += session->messages_dropped_down();
    }
    const FaultCounters& fc = faulty_->counters();
    out.faults_forwarded = fc.forwarded.load(std::memory_order_relaxed);
    out.faults_dropped = fc.dropped.load(std::memory_order_relaxed);
    out.faults_duplicated = fc.duplicated.load(std::memory_order_relaxed);
    out.faults_delayed = fc.delayed.load(std::memory_order_relaxed);
    out.clean =
        out.lost_unacked == 0 && coordinator_session_->AllGapsResolved();
    return out;
  }

  // The backend's message accounting (exact at quiesce points).
  sim::MessageStats message_stats() const {
    return runtime_ ? runtime_->stats() : engine_->stats().MessageSnapshot();
  }

  std::vector<uint64_t> SampleIds() const {
    return Traits::SampleIds(*coordinator_);
  }

  const Coordinator& coordinator() const { return *coordinator_; }
  const CoordinatorSession& coordinator_session() const {
    return *coordinator_session_;
  }
  const SiteSession& site_session(int site) const {
    return *site_sessions_[static_cast<size_t>(site)];
  }
  const FaultyTransport& faulty_transport() const { return *faulty_; }
  int num_sites() const { return num_sites_; }

  // Mutable views for the durable harness's checkpoint restore; quiesce
  // points only.
  Coordinator& coordinator() { return *coordinator_; }
  CoordinatorSession& coordinator_session() { return *coordinator_session_; }
  SiteSession& site_session(int site) {
    return *site_sessions_[static_cast<size_t>(site)];
  }
  FaultyTransport& faulty_transport() { return *faulty_; }

 private:
  static constexpr int kMaxReconcileRounds = 8;

  FaultSchedule schedule_;
  const int num_sites_;
  std::unique_ptr<sim::Runtime> runtime_;    // exactly one backend is set
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<FaultyTransport> faulty_;
  std::unique_ptr<obs::TracingTransport> tracing_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<CoordinatorSession> coordinator_session_;
  std::vector<std::unique_ptr<SiteSession>> site_sessions_;
};

using FaultyWswor = FaultyRun<WsworFaultTraits>;
using FaultyUswor = FaultyRun<UsworFaultTraits>;
using FaultyL1 = FaultyRun<L1FaultTraits>;

// --- sharded composition ----------------------------------------------
//
// One full stack PER SHARD — a FaultyRun, or a durable stack
// (durability::ShardedDurableWswor) — so crash/loss semantics are
// per-shard: a crashed or lossy shard degrades (and flags) only its own
// slice of the merged sample, and a clean shard's slice stays exact
// regardless of its siblings. The global workload is split by the
// shared ShardTopology (local site indices, per-shard arrival order
// preserved); shard runs replay each other's transcripts bit for bit
// whether executed sequentially or interleaved, because shards share no
// state and every fault decision is a function of per-shard counters
// only. Seeds follow the one deployment rule (sim/deployment.h), so at
// zero faults the merged sample equals ShardedWswor's for the same S.
template <typename Stack>
class Sharded {
 public:
  // One shard per `shard_faults` entry (faults are per-shard state) over
  // `num_sites` global sites; shard j's stack is
  // make_shard(shard_faults[j], j, S), built as shard j of S (FaultyRun).
  template <typename MakeShard>
  Sharded(int num_sites, const std::vector<FaultConfig>& shard_faults,
          const MakeShard& make_shard)
      : topology_(num_sites, static_cast<int>(shard_faults.size())) {
    shards_.reserve(shard_faults.size());
    for (int shard = 0; shard < topology_.num_shards(); ++shard) {
      shards_.push_back(make_shard(shard_faults[static_cast<size_t>(shard)],
                                   shard, topology_.num_shards()));
    }
  }

  // Streams the global workload shard by shard (each shard reconciles at
  // its own end of stream). Querying is legal afterwards.
  void Run(const Workload& workload) {
    const std::vector<Workload> splits = SplitByShard(workload, topology_);
    for (size_t j = 0; j < shards_.size(); ++j) shards_[j]->Run(splits[j]);
  }

  RunReport report() const {
    std::vector<RunReport> reports;
    reports.reserve(shards_.size());
    for (const auto& shard : shards_) reports.push_back(shard->report());
    return FoldShardReports(reports);
  }

  // Root merge of the shard coordinators' summaries.
  MergeableSample MergedSample() const {
    std::vector<const sim::CoordinatorNode*> coordinators;
    coordinators.reserve(shards_.size());
    for (const auto& shard : shards_) {
      coordinators.push_back(&shard->coordinator());
    }
    return sim::MergeShardCoordinators(coordinators);
  }

  std::vector<uint64_t> MergedSampleIds() const {
    std::vector<uint64_t> ids;
    for (const KeyedItem& ki : MergedSample().TopEntries()) {
      ids.push_back(ki.item.id);
    }
    return ids;
  }

  Stack& shard(int j) { return *shards_[static_cast<size_t>(j)]; }
  const Stack& shard(int j) const { return *shards_[static_cast<size_t>(j)]; }
  const ShardTopology& topology() const { return topology_; }

 private:
  ShardTopology topology_;
  std::vector<std::unique_ptr<Stack>> shards_;
};

// The sharded fault harness: one FaultyRun per shard.
template <typename Traits>
class ShardedFaultyRun : public Sharded<FaultyRun<Traits>> {
 public:
  ShardedFaultyRun(const typename Traits::Config& config,
                   const std::vector<FaultConfig>& shard_faults,
                   Backend backend)
      : Sharded<FaultyRun<Traits>>(
            config.num_sites, shard_faults,
            [&config, backend](const FaultConfig& faults, int shard,
                               int num_shards) {
              return std::make_unique<FaultyRun<Traits>>(
                  config, faults, backend, shard, num_shards);
            }) {}
};

using ShardedFaultyWswor = ShardedFaultyRun<WsworFaultTraits>;
using ShardedFaultyUswor = ShardedFaultyRun<UsworFaultTraits>;

// The deterministic set of item ids that reach a live site under
// `schedule` (everything except arrivals inside crash-down windows),
// replaying exactly the SiteSession crash logic. Fault-seed- and
// workload-determined only — independent of the protocol seed, which is
// what makes the surviving set a valid chi-square reference across
// protocol-seed trials.
std::vector<uint64_t> SurvivingItemIds(const Workload& workload,
                                       const FaultSchedule& schedule);

}  // namespace dwrs::faults

#endif  // DWRS_FAULTS_HARNESS_H_
