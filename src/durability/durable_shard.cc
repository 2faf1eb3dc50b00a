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

}  // namespace

// --- DurableCoordinator -----------------------------------------------

DurableCoordinator::DurableCoordinator(faults::CoordinatorSession* session,
                                       WsworCoordinator* coordinator,
                                       Sink sink)
    : session_(session), coordinator_(coordinator), sink_(std::move(sink)) {
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

void DurableCoordinator::OnMessage(int site, const sim::Payload& msg) {
  // Write-ahead: the arrival is logged before any state it will mutate.
  WalRecord arrival;
  arrival.type = WalRecordType::kMessage;
  arrival.site = site;
  arrival.msg = msg;
  sink_(arrival);
  pending_deltas_.clear();
  const uint64_t threshold_before = Bits(coordinator_->Threshold());
  const int epoch_before = coordinator_->announced_epoch();
  session_->OnMessage(site, msg);
  // Decision records, in a fixed order (deltas, threshold, epoch) so the
  // live log and a re-feed's regeneration are comparable sequences.
  for (const WalRecord& delta : pending_deltas_) sink_(delta);
  pending_deltas_.clear();
  if (Bits(coordinator_->Threshold()) != threshold_before) {
    WalRecord record;
    record.type = WalRecordType::kThresholdBump;
    record.threshold = coordinator_->Threshold();
    sink_(record);
  }
  if (coordinator_->announced_epoch() != epoch_before) {
    WalRecord record;
    record.type = WalRecordType::kEpochChange;
    record.epoch = coordinator_->announced_epoch();
    sink_(record);
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
        durable_coordinator_ = std::make_unique<DurableCoordinator>(
            &session, &coordinator,
            [this](const WalRecord& record) { Log(record); });
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
  durable_coordinator_.reset();
  audit_.reset();
}

void DurableWswor::OpenSegment(uint64_t seq) {
  wal_ = std::make_unique<WalWriter>(
      WalSegmentPath(options_.dir, seq),
      WalWriterOptions{.fsync_commits = options_.fsync_commits});
  DWRS_CHECK(wal_->ok()) << " wal open failed: " << wal_->error();
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

void DurableWswor::Log(const WalRecord& record) {
  if (audit_) {
    // The re-feed must regenerate the tail byte for byte.
    if (audit_->next >= audit_->records.size() ||
        EncodeWalRecord(record) != audit_->records[audit_->next]) {
      last_recovery_.consistent = false;
    }
    ++audit_->next;
  } else if (wal_) {
    wal_->Append(record);
    ++wal_records_logged_;
  }
}

ShardCheckpoint DurableWswor::CaptureCheckpoint(uint64_t step) const {
  ShardCheckpoint checkpoint;
  checkpoint.step = step;
  checkpoint.wal_records_logged = wal_records_logged_;

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
    Log(mark);
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
  recovery_consistent_ = recovery_consistent_ && last_recovery_.consistent;
  last_recovery_ = RecoveryReport{};
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
  // stream seamlessly, because rotation happens at capture). It is kept
  // through the LAST committed step mark: everything behind it belongs
  // to a step that never durably quiesced.
  TailAudit tail;
  bool read_any = false;
  size_t kept = 0;  // tail records through the last step mark
  uint64_t durable_step = feed_step_;
  uint64_t last_seq = scan_seq;
  bool stop_scan = false;
  for (uint64_t seq = scan_seq; !stop_scan; ++seq) {
    WalReadResult segment = ReadWalFile(WalSegmentPath(options_.dir, seq));
    if (!segment.ok) break;
    last_seq = seq;
    if (segment.truncated_tail) last_recovery_.wal_tail_truncated = true;
    for (std::vector<uint8_t>& payload : segment.payloads) {
      const std::optional<WalRecord> record = DecodeWalRecord(payload);
      if (!record) {
        // CRC-valid but undecodable: format corruption, not a torn
        // write. Stop here and flag — never skip past it.
        stop_scan = true;
        last_recovery_.consistent = false;
        break;
      }
      read_any = true;
      if (record->type == WalRecordType::kCheckpointMark) continue;
      tail.records.push_back(std::move(payload));
      if (record->type == WalRecordType::kStepMark) {
        kept = tail.records.size();
        durable_step = record->step;
      }
    }
    if (segment.truncated_tail && !stop_scan) {
      // A torn tail ends the trustworthy stream. In the FINAL segment
      // that is the expected mid-write kill signature; records in any
      // LATER segment would sit past a gap — never read across one.
      stop_scan = true;
      if (ReadWalFile(WalSegmentPath(options_.dir, seq + 1)).ok) {
        last_recovery_.consistent = false;
      }
    }
  }
  last_recovery_.recovered = loaded.has_value() || read_any;
  last_recovery_.durable_step = durable_step;
  last_recovery_.wal_records_truncated = tail.records.size() - kept;
  last_recovery_.wal_records_replayed = kept;
  wal_records_replayed_ += kept;
  tail.records.resize(kept);

  if (obs::TracingEnabled()) {
    obs::TraceEvent event;
    event.type = obs::EventType::kRecoveryReplay;
    event.a = kept;
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
  audit_ = std::move(tail);
  // Past B, the stack re-feeds (B, D] against the audit before anything
  // durable is written; until then the old segments stay authoritative.
  if (durable_step <= feed_step_) EndRecovery();
  return true;
}

void DurableWswor::EndRecovery() {
  if (audit_->next != audit_->records.size()) last_recovery_.consistent = false;
  audit_.reset();
  // Every layer sits at the same durable step again: the recovery
  // checkpoint supersedes every segment read and rotates logging to a
  // fresh one, so recovery never appends to an old segment file.
  WriteCheckpoint(feed_step_);
}

void DurableWswor::Run(const Workload& workload,
                       const std::function<void(uint64_t)>& on_step) {
  DWRS_CHECK_EQ(workload.num_sites(), stack_->num_sites());
  uint64_t step = feed_step_;
  while (step < workload.size()) {
    stack_->Step(workload.event(step));
    ++step;
    feed_step_ = step;
    // Quiesce point: the step's message exchange is complete on both
    // backends, so the mark is ordered after every record it covers.
    WalRecord mark;
    mark.type = WalRecordType::kStepMark;
    mark.step = step;
    Log(mark);
    if (audit_) {
      // Re-feed of (B, D]: the old segments already cover these steps.
      if (step == last_recovery_.durable_step) EndRecovery();
    } else {
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
  DWRS_CHECK(!audit_)
      << " workload ended inside the recovery re-feed (the re-fed stream"
         " must cover every durably logged step)";
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
  out.wal_records_logged = wal_records_logged_;
  out.wal_records_replayed = wal_records_replayed_;
  out.checkpoints_written = checkpoints_written_;
  out.recovery_consistent =
      recovery_consistent_ && last_recovery_.consistent;
  out.clean = out.clean && out.recovery_consistent;
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
