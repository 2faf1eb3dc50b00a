// Write-ahead log: CRC32-framed, length-prefixed records in an
// append-only file, with group commit: the ingest hot path only
// enqueues bytes, and the owner's Commit() at a step boundary
// (durable_shard.h) pays the write+fsync cost.
//
// File format (all fixed-width integers little-endian):
//
//   "DWAL"  magic (4 bytes)
//   u8      format version (kWalFormatVersion); readers reject others
//   frame*  where frame = u32 payload length | u32 CRC32(payload)
//           | payload bytes
//
// The payload of every frame is an encoded durability::WalRecord
// (records.h), but the framing layer is content-agnostic. A reader
// accepts the longest valid prefix: it stops at the first frame whose
// length runs past EOF or whose CRC mismatches — a torn tail from a
// mid-write kill — and reports how many valid bytes precede it. It
// never resynchronizes past a bad frame: a valid-looking record after
// garbage cannot be trusted (the paper-level guarantee is "recover a
// prefix, flagged", never "skip and hope").
//
// Durability model: Append() buffers in user space (lost on kill -9,
// which AbandonPending() models for the in-process harness); Commit()
// write()s the buffer to the kernel and optionally fdatasync()s. Group
// commit batches many appends per commit, trading a bounded loss window
// (the records since the last commit) for ingest throughput — the knobs
// and the tradeoff table live in README.md.

#ifndef DWRS_DURABILITY_WAL_H_
#define DWRS_DURABILITY_WAL_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace dwrs::durability {

inline constexpr char kWalMagic[4] = {'D', 'W', 'A', 'L'};
inline constexpr uint8_t kWalFormatVersion = 1;
inline constexpr size_t kWalHeaderSize = 5;
inline constexpr size_t kWalFrameOverhead = 8;  // length + crc

// CRC-32 (IEEE 802.3 polynomial, reflected), the zlib/gzip checksum.
// Self-contained table implementation — no external dependency. The
// classic check vector: Crc32 of "123456789" is 0xCBF43926.
uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed = 0);

// File helpers the WAL and the checkpoint files share. WriteAll writes
// all n bytes, retrying on EINTR; false (errno set) on failure.
// ReadFileBytes returns the whole file, or nullopt (errno set) when it
// cannot be opened.
bool WriteAll(int fd, const uint8_t* data, size_t n);
std::optional<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

struct WalWriterOptions {
  // fdatasync after every Commit (the durability boundary; without it a
  // commit survives process death but not power loss).
  bool fsync_commits = false;
};

struct WalStats {
  uint64_t appends = 0;
  uint64_t commits = 0;
  uint64_t fsyncs = 0;
  uint64_t bytes_appended = 0;   // framed bytes enqueued
  uint64_t bytes_committed = 0;  // framed bytes handed to the kernel
};

// Append handle for one WAL segment file. Append() is the hot-path
// entry. The mutex lets appends (from the coordinator's thread) and
// commits (from the feeder's) come from different threads.
class WalWriter {
 public:
  // Creates (truncating) `path` and writes the header. ok() is false
  // (with error()) on any I/O failure.
  WalWriter(const std::string& path, const WalWriterOptions& options);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  bool ok() const { return fd_ >= 0 && error_.empty(); }
  const std::string& error() const { return error_; }
  const std::string& path() const { return path_; }

  // Frames `payload` into the pending buffer. Returns the framed size.
  size_t Append(const std::vector<uint8_t>& payload);

  // Writes every pending frame to the kernel (+fdatasync when
  // configured). Returns false on I/O error. Idempotent when nothing is
  // pending.
  bool Commit();

  // Drops the pending (uncommitted) buffer — the user-space bytes a
  // kill -9 would lose. The in-process kill harness calls this instead
  // of Commit() when tearing a shard down.
  void AbandonPending();

  // Commit() + fdatasync regardless of fsync_commits, then close. The
  // destructor calls this; explicit Close lets callers observe errors.
  bool Close();

  size_t pending_bytes() const;
  WalStats stats() const;

 private:
  bool CommitLocked();
  bool SyncLocked();

  std::string path_;
  WalWriterOptions options_;
  int fd_ = -1;
  std::string error_;

  mutable std::mutex mutex_;
  std::vector<uint8_t> pending_;
  WalStats stats_;
};

// Result of scanning one WAL segment.
struct WalReadResult {
  bool ok = false;           // header valid and readable at all
  std::string error;         // why ok is false
  std::vector<std::vector<uint8_t>> payloads;  // the valid prefix
  uint64_t valid_bytes = 0;  // header + valid frames
  // Bytes exist past the valid prefix (torn frame, bad CRC, garbage).
  // The caller decides whether that is expected (mid-write kill) or a
  // flagged corruption.
  bool truncated_tail = false;
};

// Scans `path`, returning the longest valid prefix of frames. A missing
// file is ok=false with error set; an empty-but-valid-header file is
// ok=true with zero payloads.
WalReadResult ReadWalFile(const std::string& path);

}  // namespace dwrs::durability

#endif  // DWRS_DURABILITY_WAL_H_
