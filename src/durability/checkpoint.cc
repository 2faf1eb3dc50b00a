#include "durability/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "durability/wal.h"
#include "sim/codec.h"

namespace dwrs::durability {

namespace {

void PutSample(std::vector<uint8_t>* out, const MergeableSample& sample) {
  out->push_back(static_cast<uint8_t>(sample.kind));
  sim::PutVarint(out, sample.target_size);
  sim::PutVarint(out, sample.state_version);
  sim::PutVarint(out, sample.entries.size());
  for (const KeyedItem& e : sample.entries) {
    sim::PutVarint(out, e.item.id);
    sim::PutF64(out, e.item.weight);
    sim::PutF64(out, e.key);
  }
  sim::PutVarint(out, sample.withheld.size());
  for (const LeveledKeyedItem& w : sample.withheld) {
    sim::PutVarint(out, w.entry.item.id);
    sim::PutF64(out, w.entry.item.weight);
    sim::PutF64(out, w.entry.key);
    sim::PutZigzag(out, w.level);
  }
  sim::PutVarint(out, sample.level_counts.size());
  for (const LevelCount& lc : sample.level_counts) {
    sim::PutZigzag(out, lc.level);
    sim::PutVarint(out, lc.count);
  }
  sim::PutVarint(out, sample.slots.size());
  for (const MergeableSample::Slot& slot : sample.slots) {
    out->push_back(slot.filled ? 1 : 0);
    sim::PutF64(out, slot.key);
    sim::PutVarint(out, slot.item.id);
    sim::PutF64(out, slot.item.weight);
  }
  sim::PutF64(out, sample.scalar);
}

void PutMessageStats(std::vector<uint8_t>* out, const sim::MessageStats& m) {
  sim::PutVarint(out, m.site_to_coord);
  sim::PutVarint(out, m.coord_to_site);
  sim::PutVarint(out, m.broadcast_events);
  sim::PutVarint(out, m.words);
  for (uint64_t v : m.by_type) sim::PutVarint(out, v);
}

MergeableSample ReadSample(sim::ByteReader& r) {
  MergeableSample s;
  const uint8_t kind = r.Byte();
  if (kind > static_cast<uint8_t>(SampleKind::kScalarSum)) {
    r.Fail();  // past the last SampleKind
  }
  s.kind = static_cast<SampleKind>(kind);
  s.target_size = r.Varint<size_t>();
  s.state_version = r.Varint();
  s.entries.resize(r.Count());
  for (KeyedItem& e : s.entries) {
    e.item.id = r.Varint();
    e.item.weight = r.F64();
    e.key = r.F64();
  }
  s.withheld.resize(r.Count());
  for (LeveledKeyedItem& w : s.withheld) {
    w.entry.item.id = r.Varint();
    w.entry.item.weight = r.F64();
    w.entry.key = r.F64();
    w.level = r.Zigzag<int>();
  }
  s.level_counts.resize(r.Count());
  for (LevelCount& lc : s.level_counts) {
    lc.level = r.Zigzag<int>();
    lc.count = r.Varint();
  }
  s.slots.resize(r.Count());
  for (MergeableSample::Slot& slot : s.slots) {
    slot.filled = r.Bool();
    slot.key = r.F64();
    slot.item.id = r.Varint();
    slot.item.weight = r.F64();
  }
  s.scalar = r.F64();
  return s;
}

sim::MessageStats ReadMessageStats(sim::ByteReader& r) {
  sim::MessageStats m;
  m.site_to_coord = r.Varint();
  m.coord_to_site = r.Varint();
  m.broadcast_events = r.Varint();
  m.words = r.Varint();
  for (uint64_t& v : m.by_type) v = r.Varint();
  return m;
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
  // Make the rename itself durable.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
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
  sim::PutVarint(&body, c.checkpoint_seq);
  sim::PutVarint(&body, c.step);
  sim::PutVarint(&body, c.wal_records_logged);

  const query::ShardSnapshot& snap = c.snapshot;
  sim::PutVarint(&body, snap.publish_seq);
  sim::PutVarint(&body, snap.state_version);
  sim::PutVarint(&body, snap.steps);
  sim::PutVarint(&body, snap.session_epoch);
  body.push_back(snap.stale ? 1 : 0);
  PutSample(&body, snap.sample);
  sim::PutF64(&body, snap.threshold);
  sim::PutF64(&body, snap.l1_estimate);
  PutMessageStats(&body, snap.messages);

  const WsworCoordinator::State& coord = c.coordinator;
  for (uint64_t w : coord.rng) sim::PutU64Le(&body, w);
  sim::PutZigzag(&body, coord.announced_epoch);
  sim::PutVarint(&body, coord.early_received);
  sim::PutVarint(&body, coord.regular_received);
  sim::PutVarint(&body, coord.state_version);
  PutSample(&body, coord.summary);
  sim::PutVarint(&body, coord.saturated_levels.size());
  for (int level : coord.saturated_levels) sim::PutZigzag(&body, level);

  const faults::CoordinatorSession::State& sess = c.session;
  sim::PutVarint(&body, sess.peers.size());
  for (const faults::CoordinatorSession::PeerState& peer : sess.peers) {
    sim::PutVarint(&body, peer.epoch);
    sim::PutVarint(&body, peer.expected_seq);
    sim::PutVarint(&body, peer.max_seen_seq);
    sim::PutVarint(&body, peer.last_nacked_expected);
  }
  sim::PutU64Le(&body, sess.transcript_hash);
  sim::PutVarint(&body, sess.delivered);
  sim::PutVarint(&body, sess.duplicates_dropped);
  sim::PutVarint(&body, sess.stale_epoch_dropped);
  sim::PutVarint(&body, sess.gaps_detected);
  sim::PutVarint(&body, sess.nacks_sent);
  sim::PutVarint(&body, sess.crash_detections);
  sim::PutVarint(&body, sess.resyncs_sent);

  sim::PutVarint(&body, c.site_valid.size());
  body.insert(body.end(), c.site_valid.begin(), c.site_valid.end());

  sim::PutVarint(&body, c.site_sessions.size());
  for (const faults::SiteSession::State& s : c.site_sessions) {
    sim::PutVarint(&body, s.epoch);
    sim::PutVarint(&body, s.next_seq);
    sim::PutVarint(&body, s.unacked.size());
    for (const sim::Payload& msg : s.unacked) sim::PutSizedPayload(&body, msg);
    body.push_back(s.retransmit_pending ? 1 : 0);
    sim::PutVarint(&body, s.retransmit_from);
    sim::PutVarint(&body, s.items_seen);
    body.push_back(s.down ? 1 : 0);
    sim::PutVarint(&body, s.down_remaining);
    sim::PutVarint(&body, s.crashes);
    sim::PutVarint(&body, s.lost_unacked);
    sim::PutVarint(&body, s.items_lost);
    sim::PutVarint(&body, s.messages_dropped_down);
    sim::PutVarint(&body, s.retransmits_sent);
    sim::PutVarint(&body, s.pre_crash_counters.keys_decided);
    sim::PutVarint(&body, s.pre_crash_counters.key_bits_consumed);
    sim::PutVarint(&body, s.pre_crash_counters.skips_taken);
  }

  sim::PutVarint(&body, c.sites.size());
  for (const WsworSite::State& s : c.sites) {
    for (uint64_t w : s.rng) sim::PutU64Le(&body, w);
    body.push_back(s.filter.has_pending ? 1 : 0);
    sim::PutF64(&body, s.filter.pending);
    sim::PutF64(&body, s.filter.value);
    sim::PutVarint(&body, s.filter.decisions);
    sim::PutVarint(&body, s.filter.accepts);
    sim::PutVarint(&body, s.filter.skips_taken);
    sim::PutVarint(&body, s.filter.draws);
    sim::PutF64(&body, s.threshold);
    sim::PutVarint(&body, s.saturated.size());
    body.insert(body.end(), s.saturated.begin(), s.saturated.end());
  }

  const faults::FaultyTransport::State& t = c.transport;
  sim::PutVarint(&body, t.channels.size());
  for (const faults::FaultyTransport::ChannelState& ch : t.channels) {
    sim::PutVarint(&body, ch.next_index);
    sim::PutVarint(&body, ch.held.size());
    for (const auto& [release_at, msg] : ch.held) {
      sim::PutVarint(&body, release_at);
      sim::PutSizedPayload(&body, msg);
    }
  }
  sim::PutVarint(&body, t.forwarded);
  sim::PutVarint(&body, t.dropped);
  sim::PutVarint(&body, t.duplicated);
  sim::PutVarint(&body, t.delayed);
  body.push_back(t.enabled ? 1 : 0);

  sim::PutVarint(&body, c.kills_done);
  sim::PutVarint(&body, c.last_kill_step);

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
  c.checkpoint_seq = r.Varint();
  c.step = r.Varint();
  c.wal_records_logged = r.Varint();

  c.snapshot.publish_seq = r.Varint();
  c.snapshot.state_version = r.Varint();
  c.snapshot.steps = r.Varint();
  c.snapshot.session_epoch = r.Varint();
  c.snapshot.stale = r.Bool();
  c.snapshot.sample = ReadSample(r);
  c.snapshot.threshold = r.F64();
  c.snapshot.l1_estimate = r.F64();
  c.snapshot.messages = ReadMessageStats(r);

  for (uint64_t& w : c.coordinator.rng) w = r.U64Le();
  c.coordinator.announced_epoch = r.Zigzag<int>();
  c.coordinator.early_received = r.Varint();
  c.coordinator.regular_received = r.Varint();
  c.coordinator.state_version = r.Varint();
  c.coordinator.summary = ReadSample(r);
  c.coordinator.saturated_levels.resize(r.Count());
  for (int& level : c.coordinator.saturated_levels) level = r.Zigzag<int>();

  c.session.peers.resize(r.Count());
  for (faults::CoordinatorSession::PeerState& peer : c.session.peers) {
    peer.epoch = r.Varint<uint32_t>();
    peer.expected_seq = r.Varint<uint32_t>();
    peer.max_seen_seq = r.Varint<uint32_t>();
    peer.last_nacked_expected = r.Varint<uint32_t>();
  }
  c.session.transcript_hash = r.U64Le();
  c.session.delivered = r.Varint();
  c.session.duplicates_dropped = r.Varint();
  c.session.stale_epoch_dropped = r.Varint();
  c.session.gaps_detected = r.Varint();
  c.session.nacks_sent = r.Varint();
  c.session.crash_detections = r.Varint();
  c.session.resyncs_sent = r.Varint();

  c.site_valid.resize(r.Count());
  for (uint8_t& v : c.site_valid) v = r.Byte();

  c.site_sessions.resize(r.Count());
  for (faults::SiteSession::State& s : c.site_sessions) {
    s.epoch = r.Varint<uint32_t>();
    s.next_seq = r.Varint<uint32_t>();
    s.unacked.resize(r.Count());
    for (sim::Payload& msg : s.unacked) msg = r.SizedPayload();
    s.retransmit_pending = r.Bool();
    s.retransmit_from = r.Varint<uint32_t>();
    s.items_seen = r.Varint();
    s.down = r.Bool();
    s.down_remaining = r.Varint();
    s.crashes = r.Varint();
    s.lost_unacked = r.Varint();
    s.items_lost = r.Varint();
    s.messages_dropped_down = r.Varint();
    s.retransmits_sent = r.Varint();
    s.pre_crash_counters.keys_decided = r.Varint();
    s.pre_crash_counters.key_bits_consumed = r.Varint();
    s.pre_crash_counters.skips_taken = r.Varint();
  }

  c.sites.resize(r.Count());
  for (WsworSite::State& s : c.sites) {
    for (uint64_t& w : s.rng) w = r.U64Le();
    s.filter.has_pending = r.Bool();
    s.filter.pending = r.F64();
    s.filter.value = r.F64();
    s.filter.decisions = r.Varint();
    s.filter.accepts = r.Varint();
    s.filter.skips_taken = r.Varint();
    s.filter.draws = r.Varint();
    s.threshold = r.F64();
    s.saturated.resize(r.Count());
    for (uint8_t& v : s.saturated) v = r.Byte();
  }

  c.transport.channels.resize(r.Count());
  for (faults::FaultyTransport::ChannelState& ch : c.transport.channels) {
    ch.next_index = r.Varint();
    ch.held.resize(r.Count());
    for (auto& [release_at, msg] : ch.held) {
      release_at = r.Varint();
      msg = r.SizedPayload();
    }
  }
  c.transport.forwarded = r.Varint();
  c.transport.dropped = r.Varint();
  c.transport.duplicated = r.Varint();
  c.transport.delayed = r.Varint();
  c.transport.enabled = r.Bool();

  c.kills_done = r.Varint();
  c.last_kill_step = r.Varint();

  if (!r.done()) return std::nullopt;
  return c;
}

bool WriteCheckpointFile(const std::string& dir,
                         const ShardCheckpoint& checkpoint,
                         std::string* error) {
  const std::vector<uint8_t> bytes = EncodeCheckpoint(checkpoint);
  if (!WriteFileAtomic(CheckpointPath(dir, checkpoint.checkpoint_seq), bytes,
                       error)) {
    return false;
  }
  // Two generations retained: this one and its predecessor (the
  // fallback). Everything older — checkpoints and their WAL segments —
  // is superseded.
  for (const std::string& name : ListDir(dir)) {
    const std::optional<uint64_t> ckpt_seq = SeqOf(name, "ckpt-", ".bin");
    const std::optional<uint64_t> wal_seq = SeqOf(name, "wal-", ".log");
    const bool stale_ckpt =
        ckpt_seq && checkpoint.checkpoint_seq >= 1 &&
        *ckpt_seq < checkpoint.checkpoint_seq - 1;
    const bool stale_wal = wal_seq && checkpoint.checkpoint_seq >= 1 &&
                           *wal_seq < checkpoint.checkpoint_seq - 1;
    if (stale_ckpt || stale_wal) {
      ::unlink((dir + "/" + name).c_str());
    }
  }
  return true;
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
