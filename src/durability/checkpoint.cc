#include "durability/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "sim/codec.h"

namespace dwrs::durability {

namespace {

// The checkpoint format, one field walk per part (sim/codec.h).
template <typename IO, typename Sample>
void WalkSample(IO& io, Sample& s) {
  io.Byte(s.kind);
  io.Require(s.kind <= SampleKind::kScalarSum);  // past the last SampleKind
  io.Varint(s.target_size);
  io.Varint(s.state_version);
  io.Seq(s.entries, [&](auto& e) { WalkKeyedItem(io, e); });
  io.Seq(s.withheld, [&](auto& w) {
    WalkKeyedItem(io, w.entry);
    io.Zigzag(w.level);
  });
  io.Seq(s.level_counts, [&](auto& lc) {
    io.Zigzag(lc.level);
    io.Varint(lc.count);
  });
  io.Seq(s.slots, [&](auto& slot) {
    io.Bool(slot.filled);
    io.F64(slot.key);
    io.Varint(slot.item.id);
    io.F64(slot.item.weight);
  });
  io.F64(s.scalar);
}

template <typename IO, typename Stats>
void WalkMessageStats(IO& io, Stats& m) {
  io.Varint(m.site_to_coord);
  io.Varint(m.coord_to_site);
  io.Varint(m.broadcast_events);
  io.Varint(m.words);
  for (auto& v : m.by_type) io.Varint(v);
}

// The body behind the file header.
template <typename IO, typename Checkpoint>
void WalkCheckpoint(IO& io, Checkpoint& c) {
  io.Varint(c.checkpoint_seq);
  io.Varint(c.step);
  io.Varint(c.wal_records_logged);

  auto& snap = c.snapshot;
  io.Varint(snap.publish_seq);
  io.Varint(snap.state_version);
  io.Varint(snap.steps);
  io.Varint(snap.session_epoch);
  io.Bool(snap.stale);
  WalkSample(io, snap.sample);
  io.F64(snap.threshold);
  io.F64(snap.l1_estimate);
  WalkMessageStats(io, snap.messages);

  auto& coord = c.coordinator;
  for (auto& w : coord.rng) io.U64Le(w);
  io.Zigzag(coord.announced_epoch);
  io.Varint(coord.early_received);
  io.Varint(coord.regular_received);
  io.Varint(coord.state_version);
  WalkSample(io, coord.summary);
  io.Seq(coord.saturated_levels, [&](auto& level) { io.Zigzag(level); });

  auto& sess = c.session;
  io.Seq(sess.peers, [&](auto& peer) {
    io.Varint(peer.epoch);
    io.Varint(peer.expected_seq);
    io.Varint(peer.max_seen_seq);
    io.Varint(peer.last_nacked_expected);
  });
  io.U64Le(sess.transcript_hash);
  io.Varint(sess.delivered);
  io.Varint(sess.duplicates_dropped);
  io.Varint(sess.stale_epoch_dropped);
  io.Varint(sess.gaps_detected);
  io.Varint(sess.nacks_sent);
  io.Varint(sess.crash_detections);
  io.Varint(sess.resyncs_sent);

  io.Seq(c.site_valid, [&](auto& valid) {
    io.Byte(valid);
    io.Require(valid <= 1);
  });
  io.Seq(c.site_sessions, [&](auto& s) {
    io.Varint(s.epoch);
    io.Varint(s.next_seq);
    io.Seq(s.unacked, [&](auto& msg) { io.SizedPayload(msg); });
    io.Bool(s.retransmit_pending);
    io.Varint(s.retransmit_from);
    io.Varint(s.items_seen);
    io.Bool(s.down);
    io.Varint(s.down_remaining);
    io.Varint(s.crashes);
    io.Varint(s.lost_unacked);
    io.Varint(s.items_lost);
    io.Varint(s.messages_dropped_down);
    io.Varint(s.retransmits_sent);
    io.Varint(s.pre_crash_counters.keys_decided);
    io.Varint(s.pre_crash_counters.key_bits_consumed);
    io.Varint(s.pre_crash_counters.skips_taken);
  });
  io.Seq(c.sites, [&](auto& s) {
    for (auto& w : s.rng) io.U64Le(w);
    io.Bool(s.filter.has_pending);
    io.F64(s.filter.pending);
    io.F64(s.filter.value);
    io.Varint(s.filter.decisions);
    io.Varint(s.filter.accepts);
    io.Varint(s.filter.skips_taken);
    io.Varint(s.filter.draws);
    io.F64(s.threshold);
    io.Seq(s.saturated, [&](auto& v) { io.Byte(v); });
  });
  // The site tables agree: one flag per site session, one site state per
  // set flag.
  io.Require(c.site_valid.size() == c.site_sessions.size() &&
             static_cast<size_t>(std::ranges::count(c.site_valid, 1)) ==
                 c.sites.size());

  auto& t = c.transport;
  io.Seq(t.channels, [&](auto& ch) {
    io.Varint(ch.next_index);
    io.Seq(ch.held, [&](auto& held) {
      io.Varint(held.first);
      io.SizedPayload(held.second);
    });
  });
  io.Varint(t.forwarded);
  io.Varint(t.dropped);
  io.Varint(t.duplicated);
  io.Varint(t.delayed);
  io.Bool(t.enabled);

  io.Varint(c.kills_done);
  io.Varint(c.last_kill_step);
}

bool WriteFileAtomic(const std::string& path,
                     const std::vector<uint8_t>& bytes, std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    *error = "open " + tmp + ": " + std::strerror(errno);
    return false;
  }
  if (!WriteAll(fd, bytes.data(), bytes.size())) {
    *error = "write " + tmp + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  if (::fsync(fd) != 0) {
    *error = "fsync " + tmp + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "rename to " + path + ": " + std::strerror(errno);
    return false;
  }
  // Make the rename itself durable: until the directory is synced, the
  // new name may not survive a power loss.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    *error = "open " + dir + ": " + std::strerror(errno);
    return false;
  }
  if (::fsync(dfd) != 0) {
    *error = "fsync " + dir + ": " + std::strerror(errno);
    ::close(dfd);
    return false;
  }
  ::close(dfd);
  return true;
}

// <prefix><seq><suffix> -> seq; nullopt for any other name.
std::optional<uint64_t> SeqOf(const std::string& name, const char* prefix,
                              const char* suffix) {
  const size_t prefix_len = std::strlen(prefix);
  const size_t suffix_len = std::strlen(suffix);
  if (name.size() <= prefix_len + suffix_len ||
      name.compare(0, prefix_len, prefix) != 0 ||
      name.compare(name.size() - suffix_len, suffix_len, suffix) != 0) {
    return std::nullopt;
  }
  uint64_t seq = 0;
  for (size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* entry = ::readdir(d)) {
    names.emplace_back(entry->d_name);
  }
  ::closedir(d);
  return names;
}

}  // namespace

std::string CheckpointPath(const std::string& dir, uint64_t seq) {
  return dir + "/ckpt-" + std::to_string(seq) + ".bin";
}

std::string WalSegmentPath(const std::string& dir, uint64_t seq) {
  return dir + "/wal-" + std::to_string(seq) + ".log";
}

bool EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) return true;
  if (errno != EEXIST) return false;
  struct stat st;
  return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::vector<uint8_t> EncodeCheckpoint(const ShardCheckpoint& c) {
  std::vector<uint8_t> body;
  sim::FieldWriter io(&body);
  WalkCheckpoint(io, c);
  std::vector<uint8_t> out(kCheckpointMagic, kCheckpointMagic + 4);
  out.push_back(kCheckpointFormatVersion);
  sim::PutU32Le(&out, Crc32(body.data(), body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<ShardCheckpoint> DecodeCheckpoint(
    const std::vector<uint8_t>& bytes) {
  sim::ByteReader r(bytes);
  const uint8_t* magic = r.Bytes(sizeof(kCheckpointMagic));
  const uint8_t version = r.Byte();
  const uint32_t crc = r.U32Le();
  if (!r.ok() ||
      std::memcmp(magic, kCheckpointMagic, sizeof(kCheckpointMagic)) != 0 ||
      version != kCheckpointFormatVersion ||
      Crc32(bytes.data() + r.pos(), bytes.size() - r.pos()) != crc) {
    return std::nullopt;
  }
  ShardCheckpoint c;
  sim::FieldReader io(r);
  WalkCheckpoint(io, c);
  if (!r.done()) return std::nullopt;
  return c;
}

bool WriteCheckpointFile(const std::string& dir, uint64_t seq,
                         const std::vector<uint8_t>& bytes,
                         std::string* error) {
  if (!WriteFileAtomic(CheckpointPath(dir, seq), bytes, error)) return false;
  // The fallback is the newest older checkpoint that exists — not always
  // seq - 1: a kill while seq - 1 was being written leaves none of that
  // number. It and every WAL segment from it on are retained (with no
  // older checkpoint, every segment back to genesis). Older generations
  // and the temp files of unfinished writes are superseded.
  const std::vector<std::string> names = ListDir(dir);
  std::optional<uint64_t> fallback;
  for (const std::string& name : names) {
    const std::optional<uint64_t> n = SeqOf(name, "ckpt-", ".bin");
    if (n && *n < seq && (!fallback || *n > *fallback)) fallback = n;
  }
  for (const std::string& name : names) {
    const std::optional<uint64_t> ckpt_seq = SeqOf(name, "ckpt-", ".bin");
    const std::optional<uint64_t> wal_seq = SeqOf(name, "wal-", ".log");
    const std::optional<uint64_t> tmp_seq = SeqOf(name, "ckpt-", ".bin.tmp");
    const bool stale_ckpt = ckpt_seq && fallback && *ckpt_seq < *fallback;
    const bool stale_wal = wal_seq && fallback && *wal_seq < *fallback;
    const bool stale_tmp = tmp_seq && *tmp_seq < seq;
    if (stale_ckpt || stale_wal || stale_tmp) {
      ::unlink((dir + "/" + name).c_str());
    }
  }
  return true;
}

CheckpointWriter::CheckpointWriter(std::string dir) : dir_(std::move(dir)) {}

CheckpointWriter::~CheckpointWriter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool CheckpointWriter::Submit(uint64_t seq, std::vector<uint8_t> bytes,
                              std::unique_ptr<WalWriter> retired,
                              std::string* error) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return !busy_; });
  if (!error_.empty()) {
    *error = error_;
    return false;
  }
  // Started before busy_ is set: a thread that fails to start leaves no
  // job behind for Wait to wait on forever.
  if (!thread_.joinable()) thread_ = std::thread(&CheckpointWriter::Loop, this);
  // Replacing the finished job frees its buffers here, on the caller's
  // thread, which allocated them: freed on the writer thread they would
  // sit in that thread's malloc cache, and the heap would grow by them.
  seq_ = seq;
  bytes_ = std::move(bytes);
  retired_ = std::move(retired);
  busy_ = true;
  cv_.notify_all();
  return true;
}

bool CheckpointWriter::Wait(std::string* error) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return !busy_; });
  if (!error_.empty()) {
    *error = error_;
    return false;
  }
  return true;
}

bool CheckpointWriter::busy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busy_;
}

WalStats CheckpointWriter::retired_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  WalStats total = closed_stats_;
  if (busy_ && retired_) total += retired_->stats();
  return total;
}

void CheckpointWriter::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return busy_ || stop_; });
    if (!busy_) return;
    lock.unlock();
    // The retired segment's fdatasync first, then the checkpoint's temp
    // write, fsync, rename and directory fsync, then the prune.
    std::string error;
    bool ok = true;
    if (retired_ && !retired_->Close()) {
      ok = false;
      error = "close " + retired_->path() + ": " + retired_->error();
    }
    if (ok) ok = WriteCheckpointFile(dir_, seq_, bytes_, &error);
    lock.lock();
    if (retired_) closed_stats_ += retired_->stats();
    if (!ok && error_.empty()) error_ = error;
    busy_ = false;
    cv_.notify_all();
  }
}

std::optional<ShardCheckpoint> LoadLatestCheckpoint(const std::string& dir) {
  std::vector<uint64_t> seqs;
  for (const std::string& name : ListDir(dir)) {
    if (const std::optional<uint64_t> seq = SeqOf(name, "ckpt-", ".bin")) {
      seqs.push_back(*seq);
    }
  }
  std::sort(seqs.rbegin(), seqs.rend());
  for (uint64_t seq : seqs) {
    const std::optional<std::vector<uint8_t>> bytes =
        ReadFileBytes(CheckpointPath(dir, seq));
    if (!bytes) continue;
    if (std::optional<ShardCheckpoint> c = DecodeCheckpoint(*bytes)) {
      return c;
    }
    // Corrupt or torn: fall back to the previous generation.
  }
  return std::nullopt;
}

}  // namespace dwrs::durability
