// Durable shard harness: the fault harness's reliable stack
// (faults::FaultyRun — endpoints in reliability sessions over a
// FaultyTransport over either backend) plus what durability adds: a
// write-ahead coordinator decorator in front of the session, WAL and
// checkpoint I/O, recovery, and kill driving. The whole shard process
// can be killed (kill -9 semantics: every volatile byte gone, including
// un-committed WAL buffers) and recovered from disk to a state
// transcript-identical to a never-crashed shard at the same durable
// quiesce point.
//
// WAL + rotation lifecycle (one directory per shard):
//
//   wal-<c>.log   records logged after checkpoint c (wal-0.log from
//                 genesis), always written into a freshly created file.
//                 Appends buffer in memory and are committed only at
//                 step boundaries, every commit_interval_steps; the
//                 durable step is the last committed kStepMark.
//   ckpt-<c>.bin  full stack state at a quiesce point (checkpoint.h),
//                 every checkpoint_interval_steps. The step thread fixes
//                 what checkpoint c holds: it captures and encodes the
//                 state, closes the current segment with a committed
//                 kCheckpointMark and rotates logging to wal-<c>.log.
//                 The shard's checkpoint writer thread then makes it
//                 durable while the stack keeps stepping: it closes
//                 (fdatasyncs) the retired segment, writes ckpt-<c>.bin
//                 atomically and prunes by checkpoint.h's retention rule.
//
// The writer thread starts at the first checkpoint and holds at most one
// write. The next checkpoint, an in-process kill and the destructor all
// wait for the write in flight, and Run returns only once its final
// checkpoint is durable. A failed write is fatal at the first of those
// points ("checkpoint write failed"). While a write is in flight, Run
// yields the CPU at each group commit, so a writer sharing the step
// thread's CPU runs as soon as each of its syncs completes.
//
// Recovery (Recover(), run by the constructor when the directory holds
// state) re-executes the inputs, as command logging does:
//
//   1. Load the newest decodable checkpoint c (a torn newest file, or a
//      missing one after a kill inside the write window, falls back to
//      the newest older one) and restore the whole stack at its step B:
//      sites, site sessions, the fault transport, the coordinator and
//      its session.
//   2. Read the WAL tail (wal-<c>.log, plus any later segments when an
//      older generation was loaded) through the LAST committed kStepMark,
//      the durable step D. Records behind that mark belong to a step
//      that never quiesced durably; they are counted truncated. The
//      records through D, checkpoint marks dropped, are kept as the
//      audit: what re-executing (B, D] must regenerate.
//   3. Re-feed (B, D] with logging off. The stack is deterministic, so
//      every layer evolves as it did live, and every record it would
//      log — each arrival, each decision it caused, each step mark — is
//      checked against the audit's next record instead. A record whose
//      bytes differ, or one left over at D, flags the recovery
//      (RunReport::recovery_consistent); the tail's data is never
//      applied, so a flagged recovery still holds the state the stream
//      produces. The old segments stay on disk, so a second kill inside
//      the window recovers from them again. At D the audit is freed, a
//      recovery checkpoint (seq = last segment + 1) is written and
//      logging rotates to a fresh segment, so recovery never appends to
//      — or re-truncates — an old segment file.
//
// The feeder then continues at D + 1 (the stream is a replayable
// source), and the restored fault-transport channel indices keep every
// re-sent message on its original fault-schedule coordinate. Under a
// kill-only schedule the recovered run's final state and counters are
// identical to an uninterrupted run's; under active message faults both
// execution backends recover to the same state bit for bit and every
// data loss is a flagged session-layer event (tests/durability_test.cc
// pins both).

#ifndef DWRS_DURABILITY_DURABLE_SHARD_H_
#define DWRS_DURABILITY_DURABLE_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/coordinator.h"
#include "core/site.h"
#include "durability/checkpoint.h"
#include "durability/records.h"
#include "durability/wal.h"
#include "faults/fault_schedule.h"
#include "faults/harness.h"
#include "faults/session.h"
#include "stream/workload.h"

namespace dwrs::durability {

// Coordinator decorator sitting between the backend and the
// CoordinatorSession — the one point that sees the full pre-dedup
// arrival stream. It hands every arrival to `sink` before the session
// sees it (write-ahead), then the decision records the arrival caused.
// It installs itself as the coordinator's sample-delta hook, so it must
// outlive the coordinator's last message.
class DurableCoordinator : public sim::CoordinatorNode {
 public:
  using Sink = std::function<void(const WalRecord&)>;

  DurableCoordinator(faults::CoordinatorSession* session,
                     WsworCoordinator* coordinator, Sink sink);

  void OnMessage(int site, const sim::Payload& msg) override;

 private:
  faults::CoordinatorSession* const session_;
  WsworCoordinator* const coordinator_;
  const Sink sink_;
  std::vector<WalRecord> pending_deltas_;
};

struct DurabilityOptions {
  // Shard state directory (created if absent). Required.
  std::string dir;
  // Group-commit cadence: WAL commits every this many stream steps. 1 =
  // commit every step (smallest loss window, slowest); records of the
  // steps since the last commit die with a kill.
  uint64_t commit_interval_steps = 8;
  // Checkpoint cadence, in steps. Checkpoints also rotate the WAL.
  uint64_t checkpoint_interval_steps = 64;
  // fdatasync on every commit (power-loss durability; kill -9 survival
  // only needs the kernel write).
  bool fsync_commits = false;
};

// Outcome of one Recover() pass. `consistent` is final once Run passes
// the durable step: the re-feed up to it is what checks the tail.
struct RecoveryReport {
  bool recovered = false;  // any durable state found
  uint64_t checkpoint_seq = 0;
  uint64_t checkpoint_step = 0;  // B: feeder resumes at B + 1
  uint64_t durable_step = 0;     // D: last committed step mark
  // Tail records through D, checkpoint marks dropped: what the re-feed
  // of (B, D] is checked against.
  uint64_t wal_records_replayed = 0;
  uint64_t wal_records_truncated = 0;  // behind the last mark / torn tail
  bool wal_tail_truncated = false;     // segment ended mid-frame
  bool consistent = true;  // tail decodable and regenerated by the re-feed
};

// Coordinator-observable state at a quiesce point, bit-comparable
// across runs (keys compared as raw IEEE 754 bits).
struct ProbeState {
  uint64_t state_version = 0;
  uint64_t delivered = 0;
  uint64_t transcript_hash = 0;
  uint64_t threshold_bits = 0;
  std::vector<std::pair<uint64_t, uint64_t>> sample;  // (id, key bits)

  friend bool operator==(const ProbeState& a, const ProbeState& b) = default;
};

// One durable shard: the reliable stack (a faults::FaultyWswor, rebuilt
// on every recovery) + the DurableCoordinator in front of its session +
// WAL + checkpoints + in-process kill/recover driving.
class DurableWswor {
 public:
  using Config = WsworConfig;

  // Shard `shard` of `num_shards`, as faults::FaultyRun builds it (the
  // default is the unsharded stack).
  DurableWswor(const WsworConfig& config,
               const faults::FaultConfig& fault_config,
               faults::Backend backend, const DurabilityOptions& options,
               int shard = 0, int num_shards = 1);
  ~DurableWswor();

  DurableWswor(const DurableWswor&) = delete;
  DurableWswor& operator=(const DurableWswor&) = delete;

  // Streams the workload from the recovered position (step
  // resume_step() + 1; 0 on a fresh directory), taking seeded process
  // kills (FaultConfig::process_kill_prob) as they fire: each kill
  // tears the whole stack down — un-committed WAL bytes included — and
  // recovers it from disk before continuing. Ends with the reconcile
  // round and a final checkpoint. `on_step` (optional) runs at every
  // fed step's quiesce point with the 1-based prefix length, including
  // re-fed steps after a recovery.
  void Run(const Workload& workload,
           const std::function<void(uint64_t)>& on_step = nullptr);

  // Feeder position the next Run starts at (checkpoint step B).
  uint64_t resume_step() const { return feed_step_; }

  faults::RunReport report() const;
  ProbeState Probe() const;
  std::vector<uint64_t> SampleIds() const { return stack_->SampleIds(); }

  const WsworCoordinator& coordinator() const { return stack_->coordinator(); }
  const faults::CoordinatorSession& coordinator_session() const {
    return stack_->coordinator_session();
  }
  const RecoveryReport& last_recovery() const { return last_recovery_; }
  uint64_t process_kills() const { return kills_done_; }
  uint64_t recoveries() const { return recoveries_; }
  WalStats wal_stats() const;

 private:
  void BuildStack();
  // Waits for the in-flight checkpoint write first (kill included).
  void TearDownStack(bool abandon_pending);
  // Loads the newest checkpoint and reads the WAL tail into audit_; true
  // iff any durable state was found. Leaves the stack logging to a fresh
  // segment, or re-feeding (B, D] against the audit.
  bool Recover();
  // At the durable step: flags a tail record the re-feed left over, frees
  // the audit and writes the recovery checkpoint, which resumes logging.
  void EndRecovery();
  // Captures checkpoint checkpoint_seq_ + 1 at `step`, rotates the WAL
  // and hands the write to checkpoint_writer_.
  void WriteCheckpoint(uint64_t step);
  // Blocks until no checkpoint write is in flight; a failed one is fatal.
  void AwaitCheckpoint();
  void OpenSegment(uint64_t seq);
  void CloseSegment();
  // Every record the stack produces: appended to the WAL, or, while the
  // re-feed runs, checked against the audit's next record instead.
  void Log(const WalRecord& record);
  ShardCheckpoint CaptureCheckpoint(uint64_t step) const;
  void RestoreFromCheckpoint(const ShardCheckpoint& c);

  const WsworConfig config_;
  const DurabilityOptions options_;
  const faults::Backend backend_;
  const int shard_;
  const int num_shards_;
  // Kill oracle; its config also rebuilds the stack on every recovery.
  const faults::FaultSchedule schedule_;

  // The stack (rebuilt from scratch on every recovery). Declared after
  // the decorator it calls, so it is destroyed — backend joined — first.
  std::unique_ptr<DurableCoordinator> durable_coordinator_;
  std::unique_ptr<faults::FaultyWswor> stack_;

  // Durability state (survives stack teardowns).
  std::unique_ptr<WalWriter> wal_;
  uint64_t checkpoint_seq_ = 0;     // last written checkpoint
  uint64_t feed_step_ = 0;          // B: events already fed durably
  uint64_t wal_records_logged_ = 0;
  uint64_t wal_records_replayed_ = 0;
  uint64_t checkpoints_written_ = 0;
  uint64_t kills_done_ = 0;
  uint64_t last_kill_step_ = 0;
  uint64_t recoveries_ = 0;
  bool recovery_consistent_ = true;  // every recovery before the last
  RecoveryReport last_recovery_;
  // Folded stats of the segments closed on this thread (teardowns); the
  // writer keeps those it closed.
  WalStats closed_segment_stats_;
  CheckpointWriter checkpoint_writer_;

  // Set from a recovery until its re-feed reaches the durable step
  // (last_recovery_.durable_step): the encoded tail records through it,
  // checkpoint marks dropped, and the next one the re-feed must
  // regenerate.
  struct TailAudit {
    std::vector<std::vector<uint8_t>> records;
    size_t next = 0;
  };
  std::optional<TailAudit> audit_;
};

// Sharded composition (faults::Sharded): one DurableWswor per shard,
// each with its own subdirectory (`<dir>/shard-<j>`), fault schedule and
// kill timeline; the root merge combines the shard coordinators'
// summaries exactly as the non-durable sharded harness does.
class ShardedDurableWswor : public faults::Sharded<DurableWswor> {
 public:
  ShardedDurableWswor(const WsworConfig& config,
                      const std::vector<faults::FaultConfig>& shard_faults,
                      faults::Backend backend,
                      const DurabilityOptions& options);
};

}  // namespace dwrs::durability

#endif  // DWRS_DURABILITY_DURABLE_SHARD_H_
