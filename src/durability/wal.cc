#include "durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/trace.h"
#include "sim/codec.h"
#include "util/check.h"

namespace dwrs::durability {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// A single frame may not dwarf the file: a corrupted length field would
// otherwise make the reader attempt a multi-gigabyte allocation.
constexpr uint32_t kMaxFrameBytes = 64u << 20;

std::string ErrnoText(const char* what) {
  return std::string(what) + " failed: " + std::strerror(errno);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

bool WriteAll(int fd, const uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

std::optional<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

WalWriter::WalWriter(const std::string& path, const WalWriterOptions& options)
    : path_(path), options_(options) {
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd_ < 0) {
    error_ = ErrnoText("open");
    return;
  }
  std::vector<uint8_t> header(kWalMagic, kWalMagic + 4);
  header.push_back(kWalFormatVersion);
  if (!WriteAll(fd_, header.data(), header.size())) error_ = ErrnoText("write");
}

WalWriter::~WalWriter() { Close(); }

size_t WalWriter::Append(const std::vector<uint8_t>& payload) {
  DWRS_CHECK_LE(payload.size(), static_cast<size_t>(kMaxFrameBytes));
  const uint32_t crc = Crc32(payload.data(), payload.size());
  const size_t framed = payload.size() + kWalFrameOverhead;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sim::PutU32Le(&pending_, static_cast<uint32_t>(payload.size()));
    sim::PutU32Le(&pending_, crc);
    pending_.insert(pending_.end(), payload.begin(), payload.end());
    ++stats_.appends;
    stats_.bytes_appended += framed;
  }
  if (obs::TracingEnabled()) {
    obs::TraceEvent event;
    event.type = obs::EventType::kWalAppend;
    event.a = framed;
    obs::Emit(event);
  }
  return framed;
}

bool WalWriter::SyncLocked() {
  if (::fdatasync(fd_) != 0) {
    error_ = ErrnoText("fdatasync");
    return false;
  }
  ++stats_.fsyncs;
  return true;
}

bool WalWriter::CommitLocked() {
  if (pending_.empty()) return error_.empty();
  bool ok = WriteAll(fd_, pending_.data(), pending_.size());
  if (ok) {
    stats_.bytes_committed += pending_.size();
    if (options_.fsync_commits) ok = SyncLocked();
  } else {
    error_ = ErrnoText("write");
  }
  if (obs::TracingEnabled()) {
    obs::TraceEvent event;
    event.type = obs::EventType::kWalFsync;
    event.a = pending_.size();
    obs::Emit(event);
  }
  ++stats_.commits;
  // The buffer keeps its capacity: the next commit's appends don't
  // re-grow it.
  pending_.clear();
  return ok;
}

bool WalWriter::Commit() {
  if (fd_ < 0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return CommitLocked();
}

void WalWriter::AbandonPending() {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.clear();
}

bool WalWriter::Close() {
  if (fd_ < 0) return error_.empty();
  std::lock_guard<std::mutex> lock(mutex_);
  const bool ok = CommitLocked() && SyncLocked();
  ::close(fd_);
  fd_ = -1;
  return ok && error_.empty();
}

size_t WalWriter::pending_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

WalStats WalWriter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

WalReadResult ReadWalFile(const std::string& path) {
  WalReadResult out;
  const std::optional<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes) {
    out.error = ErrnoText("open");
    return out;
  }
  sim::ByteReader r(*bytes);
  const uint8_t* magic = r.Bytes(sizeof(kWalMagic));
  const uint8_t version = r.Byte();
  if (!r.ok() || std::memcmp(magic, kWalMagic, sizeof(kWalMagic)) != 0) {
    out.error = "bad WAL magic";
    return out;
  }
  if (version != kWalFormatVersion) {
    out.error = "unsupported WAL format version " + std::to_string(version);
    return out;
  }
  out.ok = true;
  out.valid_bytes = r.pos();
  for (;;) {
    const uint32_t len = r.U32Le();
    const uint32_t crc = r.U32Le();
    // A garbage length field, a frame running past EOF (torn) or a CRC
    // mismatch (bit flip, torn payload) ends the valid prefix.
    if (len > kMaxFrameBytes) break;
    const uint8_t* payload = r.Bytes(len);
    if (!r.ok() || Crc32(payload, len) != crc) break;
    out.payloads.emplace_back(payload, payload + len);
    out.valid_bytes = r.pos();
  }
  out.truncated_tail = out.valid_bytes < bytes->size();
  return out;
}

}  // namespace dwrs::durability
