#include "durability/durable_shard.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "query/capture.h"
#include "util/check.h"

namespace dwrs::durability {
namespace {

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Decision-record equality for the replay cross-check. Doubles compare
// by bit pattern: replay must REGENERATE the logged history, not merely
// approximate it.
bool DecisionEquals(const WalRecord& a, const WalRecord& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case WalRecordType::kThresholdBump:
      return Bits(a.threshold) == Bits(b.threshold);
    case WalRecordType::kEpochChange:
      return a.epoch == b.epoch;
    case WalRecordType::kSampleDelta:
      return a.added.item.id == b.added.item.id &&
             Bits(a.added.item.weight) == Bits(b.added.item.weight) &&
             Bits(a.added.key) == Bits(b.added.key) &&
             a.evicted_valid == b.evicted_valid &&
             (!a.evicted_valid || a.evicted_id == b.evicted_id);
    default:
      return false;
  }
}

}  // namespace

// --- DurableCoordinator -----------------------------------------------

DurableCoordinator::DurableCoordinator(faults::CoordinatorSession* session,
                                       WsworCoordinator* coordinator)
    : session_(session), coordinator_(coordinator) {
  // Sample-membership changes fire inside OnMessage, on the thread that
  // owns the coordinator; OnMessage emits them after the arrival.
  coordinator_->set_sample_delta_hook(
      [this](const WsworCoordinator::SampleDelta& delta) {
        WalRecord record;
        record.type = WalRecordType::kSampleDelta;
        record.added = delta.added;
        record.evicted_valid = delta.evicted_valid;
        record.evicted_id = delta.evicted_id;
        pending_deltas_.push_back(record);
      });
}

void DurableCoordinator::EmitDecision(const WalRecord& record) {
  if (capture_ != nullptr) {
    capture_->push_back(record);
  } else if (wal_ != nullptr) {
    wal_->Append(record);
    ++records_logged_;
  }
}

void DurableCoordinator::OnMessage(int site, const sim::Payload& msg) {
  // Write-ahead: the arrival is logged before any state it will mutate.
  // During replay (capture_ set) the arrival IS the log — no re-append.
  if (capture_ == nullptr && wal_ != nullptr) {
    WalRecord record;
    record.type = WalRecordType::kMessage;
    record.site = site;
    record.msg = msg;
    wal_->Append(record);
    ++records_logged_;
  }
  pending_deltas_.clear();
  const uint64_t threshold_before = Bits(coordinator_->Threshold());
  const int epoch_before = coordinator_->announced_epoch();
  session_->OnMessage(site, msg);
  // Decision audit, in a fixed order (deltas, threshold, epoch) so the
  // live log and the replay regeneration are comparable sequences.
  for (const WalRecord& delta : pending_deltas_) EmitDecision(delta);
  pending_deltas_.clear();
  if (Bits(coordinator_->Threshold()) != threshold_before) {
    WalRecord record;
    record.type = WalRecordType::kThresholdBump;
    record.threshold = coordinator_->Threshold();
    EmitDecision(record);
  }
  if (coordinator_->announced_epoch() != epoch_before) {
    WalRecord record;
    record.type = WalRecordType::kEpochChange;
    record.epoch = coordinator_->announced_epoch();
    EmitDecision(record);
  }
}

// --- DurableWswor -----------------------------------------------------

DurableWswor::DurableWswor(const WsworConfig& config,
                           const faults::FaultConfig& fault_config,
                           faults::Backend backend,
                           const DurabilityOptions& options, int shard,
                           int num_shards)
    : config_(config),
      options_(options),
      backend_(backend),
      shard_(shard),
      num_shards_(num_shards),
      schedule_(fault_config),
      checkpoint_writer_(options.dir) {
  DWRS_CHECK(!options_.dir.empty()) << " durability dir is required";
  DWRS_CHECK_GT(options_.commit_interval_steps, 0u);
  DWRS_CHECK_GT(options_.checkpoint_interval_steps, 0u);
  DWRS_CHECK(EnsureDir(options_.dir))
      << " cannot create durability dir " << options_.dir;
  Recover();
}

DurableWswor::~DurableWswor() { TearDownStack(/*abandon_pending=*/false); }

void DurableWswor::BuildStack() {
  // The fault harness's stack, seeds included — a durable run with no
  // kills is bit-identical to a FaultyRun — with the write-ahead
  // decorator as the backend's coordinator.
  stack_ = std::make_unique<faults::FaultyWswor>(
      config_, schedule_.config(), backend_, shard_, num_shards_,
      [this](WsworCoordinator& coordinator,
             faults::CoordinatorSession& session) {
        durable_coordinator_ =
            std::make_unique<DurableCoordinator>(&session, &coordinator);
        return durable_coordinator_.get();
      });
}

void DurableWswor::TearDownStack(bool abandon_pending) {
  // The in-flight checkpoint write finishes first, kill included: the
  // recovery that follows an in-process kill then always sees it, so the
  // kill tests stay deterministic.
  AwaitCheckpoint();
  if (wal_) {
    if (abandon_pending) wal_->AbandonPending();
    CloseSegment();
  }
  // The stack joins its backend's threads before the decorator they
  // call dies.
  stack_.reset();
  if (durable_coordinator_) {
    wal_records_logged_ += durable_coordinator_->records_logged();
  }
  durable_coordinator_.reset();
}

void DurableWswor::OpenSegment(uint64_t seq) {
  wal_ = std::make_unique<WalWriter>(
      WalSegmentPath(options_.dir, seq),
      WalWriterOptions{.fsync_commits = options_.fsync_commits});
  DWRS_CHECK(wal_->ok()) << " wal open failed: " << wal_->error();
  durable_coordinator_->set_wal(wal_.get());
}

void DurableWswor::CloseSegment() {
  wal_->Close();
  closed_segment_stats_ += wal_->stats();
  wal_.reset();
}

void DurableWswor::AwaitCheckpoint() {
  std::string error;
  DWRS_CHECK(checkpoint_writer_.Wait(&error))
      << " checkpoint write failed: " << error;
}

void DurableWswor::AppendHarnessRecord(const WalRecord& record) {
  wal_->Append(record);
  ++wal_records_logged_;
}

ShardCheckpoint DurableWswor::CaptureCheckpoint(uint64_t step) const {
  ShardCheckpoint checkpoint;
  checkpoint.step = step;
  checkpoint.wal_records_logged =
      wal_records_logged_ + durable_coordinator_->records_logged();

  // The query-layer view doubles as the checkpoint payload core.
  checkpoint.snapshot =
      query::CaptureSessionSnapshot(stack_->coordinator_session());
  checkpoint.snapshot.publish_seq = checkpoint_seq_ + 1;
  checkpoint.snapshot.steps = step;
  checkpoint.snapshot.messages = stack_->message_stats();

  checkpoint.coordinator = stack_->coordinator().SaveState();
  checkpoint.session = stack_->coordinator_session().SaveState();
  const int num_sites = stack_->num_sites();
  checkpoint.site_valid.resize(static_cast<size_t>(num_sites), 0);
  for (int i = 0; i < num_sites; ++i) {
    faults::SiteSession& session = stack_->site_session(i);
    checkpoint.site_sessions.push_back(session.SaveState());
    if (session.endpoint() != nullptr) {
      checkpoint.site_valid[static_cast<size_t>(i)] = 1;
      checkpoint.sites.push_back(
          static_cast<WsworSite*>(session.endpoint())->SaveState());
    }
  }
  checkpoint.transport = stack_->faulty_transport().SaveState();
  checkpoint.kills_done = kills_done_;
  checkpoint.last_kill_step = last_kill_step_;
  return checkpoint;
}

void DurableWswor::RestoreFromCheckpoint(const ShardCheckpoint& c) {
  const int num_sites = stack_->num_sites();
  DWRS_CHECK_EQ(c.site_sessions.size(), static_cast<size_t>(num_sites))
      << " checkpoint site count mismatch";
  stack_->coordinator().RestoreState(c.coordinator);
  stack_->coordinator_session().RestoreState(c.session);
  // DecodeCheckpoint admits only site tables that agree.
  size_t valid = 0;
  for (int i = 0; i < num_sites; ++i) {
    faults::SiteSession& session = stack_->site_session(i);
    session.RestoreState(c.site_sessions[static_cast<size_t>(i)]);
    if (c.site_valid[static_cast<size_t>(i)]) {
      DWRS_CHECK(session.endpoint() != nullptr);
      static_cast<WsworSite*>(session.endpoint())
          ->RestoreState(c.sites[valid++]);
    }
  }
  stack_->faulty_transport().RestoreState(c.transport);
}

void DurableWswor::WriteCheckpoint(uint64_t step) {
  // What is checkpointed is fixed here, on the step thread: the capture,
  // its encoding, the mark that closes the current segment and the
  // rotation to a fresh one. The I/O that makes it durable runs on the
  // writer thread while the stack keeps stepping.
  ShardCheckpoint checkpoint = CaptureCheckpoint(step);
  checkpoint.checkpoint_seq = checkpoint_seq_ + 1;
  std::vector<uint8_t> bytes = EncodeCheckpoint(checkpoint);
  std::unique_ptr<WalWriter> retired;
  if (wal_) {
    // Close out the current segment: the checkpoint mark is its final
    // committed record, so a later reader can audit the rotation.
    WalRecord mark;
    mark.type = WalRecordType::kCheckpointMark;
    mark.step = checkpoint.checkpoint_seq;
    AppendHarnessRecord(mark);
    DWRS_CHECK(wal_->Commit()) << " wal commit failed: " << wal_->error();
    retired = std::move(wal_);
  }
  checkpoint_seq_ = checkpoint.checkpoint_seq;
  ++checkpoints_written_;
  OpenSegment(checkpoint_seq_);
  std::string error;
  DWRS_CHECK(checkpoint_writer_.Submit(checkpoint_seq_, std::move(bytes),
                                       std::move(retired), &error))
      << " checkpoint write failed: " << error;
  if (obs::TracingEnabled()) {
    obs::TraceEvent event;
    event.type = obs::EventType::kCheckpointWrite;
    event.a = checkpoint.checkpoint_seq;
    event.step = step;
    event.shard = static_cast<int16_t>(shard_);
    obs::Emit(event);
  }
}

bool DurableWswor::Recover() {
  last_recovery_ = RecoveryReport{};
  catching_up_ = false;
  catch_up_until_ = 0;
  const std::optional<ShardCheckpoint> loaded =
      LoadLatestCheckpoint(options_.dir);
  BuildStack();
  uint64_t scan_seq = 0;
  if (loaded) {
    RestoreFromCheckpoint(*loaded);
    checkpoint_seq_ = loaded->checkpoint_seq;
    feed_step_ = loaded->step;
    wal_records_logged_ = loaded->wal_records_logged;
    kills_done_ = std::max(kills_done_, loaded->kills_done);
    last_kill_step_ = std::max(last_kill_step_, loaded->last_kill_step);
    scan_seq = loaded->checkpoint_seq;
    last_recovery_.checkpoint_seq = loaded->checkpoint_seq;
    last_recovery_.checkpoint_step = loaded->step;
  } else {
    checkpoint_seq_ = 0;
    feed_step_ = 0;
  }

  // The WAL tail: the loaded generation's segment, plus any later
  // segments (present when the newest checkpoint was torn, or never
  // written because a kill hit its write window, and the load fell back
  // a generation — the later segments' records continue the arrival
  // stream seamlessly, because rotation happens at capture).
  std::vector<WalRecord> records;
  uint64_t last_seq = scan_seq;
  bool stop_scan = false;
  for (uint64_t seq = scan_seq; !stop_scan; ++seq) {
    const WalReadResult segment =
        ReadWalFile(WalSegmentPath(options_.dir, seq));
    if (!segment.ok) break;
    last_seq = seq;
    if (segment.truncated_tail) last_recovery_.wal_tail_truncated = true;
    for (const std::vector<uint8_t>& payload : segment.payloads) {
      const std::optional<WalRecord> record = DecodeWalRecord(payload);
      if (!record) {
        // CRC-valid but undecodable: format corruption, not a torn
        // write. Stop here and flag — never skip past it.
        stop_scan = true;
        last_recovery_.consistent = false;
        break;
      }
      records.push_back(*record);
    }
    if (segment.truncated_tail && !stop_scan) {
      // A torn tail ends the trustworthy stream. In the FINAL segment
      // that is the expected mid-write kill signature; records in any
      // LATER segment would sit past a gap — never replay across one.
      stop_scan = true;
      if (ReadWalFile(WalSegmentPath(options_.dir, seq + 1)).ok) {
        last_recovery_.consistent = false;
      }
    }
  }
  last_recovery_.recovered = loaded.has_value() || !records.empty();

  // Replay through the LAST committed step mark: everything behind it
  // belongs to a step that never durably quiesced and is regenerated by
  // the re-feed.
  size_t cut = 0;
  uint64_t durable_step = feed_step_;
  for (size_t i = records.size(); i-- > 0;) {
    if (records[i].type == WalRecordType::kStepMark) {
      cut = i + 1;
      durable_step = records[i].step;
      break;
    }
  }
  last_recovery_.durable_step = durable_step;
  last_recovery_.wal_records_truncated =
      static_cast<uint64_t>(records.size() - cut);

  // Replay the arrival stream through the real session code, sends
  // aimed at a capture sink; decision records regenerate into
  // `regenerated` for the cross-check below.
  CaptureTransport sink;
  std::vector<WalRecord> regenerated;
  stack_->coordinator_transport().set_target(&sink);
  durable_coordinator_->set_replay_capture(&regenerated);
  std::vector<const WalRecord*> logged_decisions;
  catch_up_broadcasts_.clear();
  for (size_t i = 0; i < cut; ++i) {
    const WalRecord& record = records[i];
    switch (record.type) {
      case WalRecordType::kMessage:
        durable_coordinator_->OnMessage(record.site, record.msg);
        break;
      case WalRecordType::kThresholdBump:
      case WalRecordType::kEpochChange:
      case WalRecordType::kSampleDelta:
        logged_decisions.push_back(&record);
        break;
      case WalRecordType::kStepMark: {
        // Broadcasts the replayed arrivals of this step regenerated;
        // the catch-up re-feed re-injects them at the same boundary.
        std::vector<sim::Payload> broadcasts = sink.TakeBroadcasts();
        if (!broadcasts.empty()) {
          catch_up_broadcasts_.emplace(record.step, std::move(broadcasts));
        }
        break;
      }
      case WalRecordType::kCheckpointMark:
        break;
    }
  }
  durable_coordinator_->set_replay_capture(nullptr);
  stack_->coordinator_transport().set_target(nullptr);
  last_recovery_.wal_records_replayed = static_cast<uint64_t>(cut);
  wal_records_replayed_ += static_cast<uint64_t>(cut);

  if (regenerated.size() != logged_decisions.size()) {
    last_recovery_.consistent = false;
  } else {
    for (size_t i = 0; i < regenerated.size(); ++i) {
      if (!DecisionEquals(regenerated[i], *logged_decisions[i])) {
        last_recovery_.consistent = false;
        break;
      }
    }
  }
  recovery_consistent_ = recovery_consistent_ && last_recovery_.consistent;

  if (obs::TracingEnabled()) {
    obs::TraceEvent event;
    event.type = obs::EventType::kRecoveryReplay;
    event.a = static_cast<uint64_t>(cut);
    event.step = durable_step;
    event.shard = static_cast<int16_t>(shard_);
    obs::Emit(event);
  }

  if (!last_recovery_.recovered) {
    // Fresh directory: genesis segment, no checkpoint yet.
    OpenSegment(0);
    return false;
  }
  ++recoveries_;
  checkpoint_seq_ = std::max(checkpoint_seq_, last_seq);
  if (durable_step > feed_step_) {
    // Sites sit at B while session + coordinator sit at D: defer all
    // durable writes until the feeder has re-run (B, D] and the whole
    // stack is a pure D-state. Until then the old segments stay
    // authoritative — a second kill inside the window replays them
    // idempotently.
    catching_up_ = true;
    catch_up_until_ = durable_step;
  } else {
    // Recovery checkpoint: supersede every replayed segment and rotate
    // to a fresh one, so recovery never appends to an old segment file.
    catch_up_broadcasts_.clear();
    WriteCheckpoint(feed_step_);
  }
  return true;
}

void DurableWswor::Run(const Workload& workload,
                       const std::function<void(uint64_t)>& on_step) {
  DWRS_CHECK_EQ(workload.num_sites(), stack_->num_sites());
  uint64_t step = feed_step_;
  while (step < workload.size()) {
    stack_->Step(workload.event(step));
    ++step;
    feed_step_ = step;
    if (catching_up_) {
      // Catch-up window (B, D]: logging is off — the old segments
      // already cover these steps. The session duplicate-drops (and
      // re-acks) the re-sent arrivals; what it cannot regenerate are
      // the coordinator-initiated broadcasts, so re-inject the captured
      // ones at their original step boundary.
      const auto broadcasts = catch_up_broadcasts_.find(step);
      if (broadcasts != catch_up_broadcasts_.end()) {
        for (const sim::Payload& msg : broadcasts->second) {
          stack_->coordinator_transport().Broadcast(msg);
        }
        stack_->Flush();
      }
      if (step == catch_up_until_) {
        // The whole stack is a pure D-state again: make it durable and
        // resume normal logging on a fresh segment.
        catching_up_ = false;
        catch_up_broadcasts_.clear();
        WriteCheckpoint(step);
      }
    } else {
      // Quiesce point: the step's message exchange is complete on both
      // backends, so the mark is ordered after every record it covers.
      WalRecord mark;
      mark.type = WalRecordType::kStepMark;
      mark.step = step;
      AppendHarnessRecord(mark);
      if (step % options_.commit_interval_steps == 0) {
        DWRS_CHECK(wal_->Commit()) << " wal commit failed: " << wal_->error();
        // With a checkpoint write in flight, offer the CPU: a writer
        // thread sharing it needs it after each of its syncs, and a
        // busy step thread would otherwise hold it until the scheduler
        // preempts it, stretching the write the next checkpoint waits
        // for.
        if (checkpoint_writer_.busy()) std::this_thread::yield();
      }
      if (step % options_.checkpoint_interval_steps == 0) {
        WriteCheckpoint(step);
      }
    }
    if (on_step) on_step(step);
    if (schedule_.ProcessKillsAt(step) &&
        kills_done_ < static_cast<uint64_t>(
                          std::max(0, schedule_.config().max_process_kills)) &&
        step > last_kill_step_) {
      ++kills_done_;
      last_kill_step_ = step;
      // kill -9: every volatile byte dies — un-committed WAL buffers
      // included — then the process image is rebuilt from disk.
      TearDownStack(/*abandon_pending=*/true);
      Recover();
      step = feed_step_;
    }
  }
  DWRS_CHECK(!catching_up_)
      << " workload ended inside the recovery catch-up window (the re-fed"
         " stream must cover every durably logged step)";
  stack_->Reconcile();
  // Final checkpoint (post-reconcile): commits the reconcile-round
  // records and leaves the directory resumable at end of stream. Run
  // returns only once it is durable.
  WriteCheckpoint(feed_step_);
  AwaitCheckpoint();
}

faults::RunReport DurableWswor::report() const {
  faults::RunReport out = stack_->report();
  out.process_kills = kills_done_;
  out.recoveries = recoveries_;
  out.wal_records_logged =
      wal_records_logged_ + durable_coordinator_->records_logged();
  out.wal_records_replayed = wal_records_replayed_;
  out.checkpoints_written = checkpoints_written_;
  out.recovery_consistent = recovery_consistent_;
  out.clean = out.clean && recovery_consistent_;
  return out;
}

ProbeState DurableWswor::Probe() const {
  ProbeState probe;
  probe.state_version = coordinator().StateVersion();
  probe.delivered = coordinator_session().delivered();
  probe.transcript_hash = coordinator_session().transcript_hash();
  probe.threshold_bits = Bits(coordinator().Threshold());
  for (const KeyedItem& ki : coordinator().Sample()) {
    probe.sample.emplace_back(ki.item.id, Bits(ki.key));
  }
  return probe;
}

WalStats DurableWswor::wal_stats() const {
  WalStats total = closed_segment_stats_;
  total += checkpoint_writer_.retired_stats();
  if (wal_) total += wal_->stats();
  return total;
}

// --- ShardedDurableWswor ----------------------------------------------

ShardedDurableWswor::ShardedDurableWswor(
    const WsworConfig& config,
    const std::vector<faults::FaultConfig>& shard_faults,
    faults::Backend backend, const DurabilityOptions& options)
    : Sharded(config.num_sites, shard_faults,
              [&](const faults::FaultConfig& faults, int shard,
                  int num_shards) {
                DWRS_CHECK(!options.dir.empty() && EnsureDir(options.dir))
                    << " cannot create durability dir " << options.dir;
                DurabilityOptions shard_options = options;
                shard_options.dir =
                    options.dir + "/shard-" + std::to_string(shard);
                return std::make_unique<DurableWswor>(
                    config, faults, backend, shard_options, shard,
                    num_shards);
              }) {}

}  // namespace dwrs::durability
