// Durable checkpoints: a full serialization of one shard's protocol
// stack at a quiesce point, written atomically (temp + fsync + rename +
// directory fsync) and versioned by a monotone checkpoint sequence that
// doubles as the WAL segment generation (durable_shard.h describes the
// rotation lifecycle).
//
// The payload core is the shard's query::ShardSnapshot — the same value
// the live-query layer publishes — so "what a checkpoint restores" and
// "what a query would have answered" can never drift apart. Around it
// ride the states a snapshot deliberately omits: the coordinator's RNG
// words and saturation flags, the reliability sessions, the site
// filters, and the fault transport's channel counters (which keep a
// recovered run on the same fault-schedule coordinates).
//
// File format: "DCKP" magic | u8 version | u32 CRC32(body) | body. A
// CRC mismatch or truncation fails the load; LoadLatestCheckpoint then
// falls back to the previous generation.
//
// Persistence runs off the step path: the owner captures and encodes a
// checkpoint at a step boundary and hands the bytes to a
// CheckpointWriter, whose one thread does the I/O while the stack keeps
// stepping — a fuzzy checkpoint in the sense of ARIES (Mohan et al.,
// TODS 1992). A kill inside that window leaves the new generation's WAL
// segment without its checkpoint (and perhaps a torn ckpt-<seq>.bin.tmp);
// recovery then loads the previous generation and replays every later
// segment. Retention keeps that fallback: after writing checkpoint seq,
// the newest older checkpoint that exists and every WAL segment from it
// on stay, everything older goes, and so do stale temp files.

#ifndef DWRS_DURABILITY_CHECKPOINT_H_
#define DWRS_DURABILITY_CHECKPOINT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/coordinator.h"
#include "core/site.h"
#include "durability/wal.h"
#include "faults/faulty_transport.h"
#include "faults/session.h"
#include "query/snapshot.h"

namespace dwrs::durability {

inline constexpr char kCheckpointMagic[4] = {'D', 'C', 'K', 'P'};
inline constexpr uint8_t kCheckpointFormatVersion = 1;

struct ShardCheckpoint {
  // Monotone generation; WAL segment wal-<checkpoint_seq>.log holds the
  // records after this capture.
  uint64_t checkpoint_seq = 0;
  // Stream step at capture (1-based prefix length; the feeder resumes
  // at step + 1).
  uint64_t step = 0;
  // WAL records logged before the capture (accounting continuity).
  uint64_t wal_records_logged = 0;

  // The query-layer view at capture — checkpoint payload core.
  query::ShardSnapshot snapshot;

  // Protocol + reliability state the snapshot does not carry.
  WsworCoordinator::State coordinator;
  faults::CoordinatorSession::State session;
  // Per site: whether a live endpoint existed (a site inside a
  // crash-down window has none), its session state, and — when valid —
  // its protocol state.
  std::vector<uint8_t> site_valid;
  std::vector<faults::SiteSession::State> site_sessions;
  std::vector<WsworSite::State> sites;
  faults::FaultyTransport::State transport;

  // Kill-harness bookkeeping, so a recovered run never re-fires a kill
  // it already took on a re-fed step.
  uint64_t kills_done = 0;
  uint64_t last_kill_step = 0;
};

std::vector<uint8_t> EncodeCheckpoint(const ShardCheckpoint& checkpoint);
std::optional<ShardCheckpoint> DecodeCheckpoint(
    const std::vector<uint8_t>& bytes);

// Writes `bytes` (an EncodeCheckpoint image) to `<dir>/ckpt-<seq>.bin`
// atomically, then prunes by the retention rule above. False (with
// *error) on any I/O failure, the directory fsync's included.
bool WriteCheckpointFile(const std::string& dir, uint64_t seq,
                         const std::vector<uint8_t>& bytes,
                         std::string* error);

// The one background thread that persists a shard's checkpoints. Each
// job runs the checkpoint I/O in order: the retired WAL segment's
// Close() (its fdatasync), then WriteCheckpointFile. At most one job is
// in flight; Submit waits for the previous one. The thread starts with
// the first Submit, and the destructor lets the in-flight job finish
// before joining it. A failed job is reported by the next Submit or
// Wait (and every one after), never dropped.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::string dir);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  // Waits for the in-flight job, then hands over this one: close
  // `retired` (may be null), write checkpoint `seq` from `bytes`. False
  // (with *error, and nothing handed over) when an earlier job failed.
  bool Submit(uint64_t seq, std::vector<uint8_t> bytes,
              std::unique_ptr<WalWriter> retired, std::string* error);

  // Blocks until no job is in flight. False (with *error) when a job
  // failed.
  bool Wait(std::string* error);

  // Whether a job is in flight.
  bool busy() const;

  // Stats of every segment handed over, the in-flight one included.
  WalStats retired_stats() const;

 private:
  void Loop();

  const std::string dir_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool busy_ = false;  // a job is handed over and not yet finished
  bool stop_ = false;
  // The job; only the writer thread touches it while busy_. A finished
  // job stays until the next Submit replaces it.
  uint64_t seq_ = 0;
  std::vector<uint8_t> bytes_;
  std::unique_ptr<WalWriter> retired_;
  WalStats closed_stats_;  // segments the writer has closed
  std::string error_;      // the first failure, kept
  std::thread thread_;
};

// Loads the newest decodable checkpoint under `dir`, trying generations
// newest-first (a torn or corrupted newest file falls back to its
// predecessor). nullopt when none exists or none decodes.
std::optional<ShardCheckpoint> LoadLatestCheckpoint(const std::string& dir);

// The on-disk names the rotation lifecycle uses.
std::string CheckpointPath(const std::string& dir, uint64_t seq);
std::string WalSegmentPath(const std::string& dir, uint64_t seq);

// Creates `dir` (one level) if absent; false on failure.
bool EnsureDir(const std::string& dir);

}  // namespace dwrs::durability

#endif  // DWRS_DURABILITY_CHECKPOINT_H_
