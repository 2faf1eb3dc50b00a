// Tests of the durability subsystem (src/durability/): the CRC-framed
// WAL and its torn-tail semantics, the record and checkpoint codecs, and
// — the headline guarantee — that a shard killed mid-ingestion (kill -9
// semantics: every volatile byte gone) recovers from checkpoint + WAL
// replay to a state transcript-identical to a never-crashed shard, on
// both execution backends. The corruption fuzz at the end pins the
// never-silently-wrong contract: seeded bit flips, truncations and
// deletions over the durable files always yield either a correct
// recovery or a flagged one, never an unflagged wrong sample.
//
// Run under -fsanitize=thread in CI (the engine-backed runs exercise the
// WAL append path from the coordinator worker thread, and every durable
// run hands its checkpoints to the checkpoint writer thread).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "gtest/gtest.h"
#include "durability/checkpoint.h"
#include "durability/durable_shard.h"
#include "durability/records.h"
#include "durability/wal.h"
#include "faults/fault_schedule.h"
#include "faults/harness.h"
#include "query/snapshot.h"
#include "random/rng.h"
#include "sim/codec.h"
#include "stream/generators.h"
#include "stream/partitioners.h"
#include "stream/workload.h"

namespace dwrs {
namespace {

using durability::Crc32;
using durability::DecodeCheckpoint;
using durability::DecodeWalRecord;
using durability::DurabilityOptions;
using durability::DurableWswor;
using durability::EncodeCheckpoint;
using durability::EncodeWalRecord;
using durability::LoadLatestCheckpoint;
using durability::ProbeState;
using durability::ReadWalFile;
using durability::ShardCheckpoint;
using durability::ShardedDurableWswor;
using durability::WalReadResult;
using durability::WalRecord;
using durability::WalRecordType;
using durability::WalWriter;
using durability::WalWriterOptions;
using faults::Backend;
using faults::FaultConfig;
using faults::RunReport;

// Recursive rm -rf for the small test directories.
void RemoveAll(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
}

std::string TempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "dwrs_durability_" + tag;
  RemoveAll(dir);  // stale state from an earlier run must not leak in
  return dir;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bool Exists(const std::string& path) {
  return std::filesystem::exists(path);
}

// Names of the checkpoint temp files (ckpt-<n>.bin.tmp) in `dir`.
std::vector<std::string> TempFiles(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") {
      names.push_back(entry.path().filename().string());
    }
  }
  return names;
}

// Copies the files of `from` into a fresh directory `to`. The checkpoint
// writer may be renaming or pruning files of `from` meanwhile; a file
// that is gone by the time it is opened is skipped.
void CopyDir(const std::string& from, const std::string& to) {
  RemoveAll(to);
  std::filesystem::create_directory(to);
  for (const auto& entry : std::filesystem::directory_iterator(from)) {
    std::error_code ignored;
    std::filesystem::copy_file(entry.path(),
                               to + "/" + entry.path().filename().string(),
                               ignored);
  }
}

bool DecodableCheckpoint(const std::string& path) {
  return DecodeCheckpoint(ReadAll(path)).has_value();
}

// ---------------------------------------------------------------------
// WAL framing.

TEST(Crc32Test, MatchesTheClassicCheckVector) {
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(WalTest, RoundtripsFramesThroughCommitAndReopen) {
  const std::string dir = TempDir("wal_roundtrip");
  ASSERT_TRUE(durability::EnsureDir(dir));
  const std::string path = dir + "/wal-0.log";
  std::vector<std::vector<uint8_t>> payloads = {
      {1, 2, 3}, {}, std::vector<uint8_t>(1000, 0xAB), {0xFF}};
  {
    WalWriter writer(path, WalWriterOptions{});
    ASSERT_TRUE(writer.ok()) << writer.error();
    for (const auto& p : payloads) writer.Append(p);
    EXPECT_GT(writer.pending_bytes(), 0u);
    ASSERT_TRUE(writer.Commit());
    EXPECT_EQ(writer.pending_bytes(), 0u);
    ASSERT_TRUE(writer.Close());
    EXPECT_EQ(writer.stats().appends, payloads.size());
    EXPECT_GE(writer.stats().fsyncs, 1u);  // Close always syncs
  }
  const WalReadResult r = ReadWalFile(path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.truncated_tail);
  EXPECT_EQ(r.payloads, payloads);
  RemoveAll(dir);
}

TEST(WalTest, AbandonPendingDropsUncommittedBytes) {
  const std::string dir = TempDir("wal_abandon");
  ASSERT_TRUE(durability::EnsureDir(dir));
  const std::string path = dir + "/wal-0.log";
  WalWriter writer(path, WalWriterOptions{});
  ASSERT_TRUE(writer.ok());
  writer.Append({1});
  ASSERT_TRUE(writer.Commit());
  writer.Append({2});  // never committed: dies with the "process"
  writer.AbandonPending();
  ASSERT_TRUE(writer.Close());
  const WalReadResult r = ReadWalFile(path);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.payloads.size(), 1u);
  EXPECT_EQ(r.payloads[0], (std::vector<uint8_t>{1}));
  RemoveAll(dir);
}

TEST(WalTest, RejectsUnsupportedFormatVersion) {
  const std::string dir = TempDir("wal_version");
  ASSERT_TRUE(durability::EnsureDir(dir));
  const std::string path = dir + "/wal-0.log";
  {
    WalWriter writer(path, WalWriterOptions{});
    ASSERT_TRUE(writer.ok());
    writer.Append({1, 2});
    ASSERT_TRUE(writer.Close());
  }
  std::vector<uint8_t> bytes = ReadAll(path);
  ASSERT_GE(bytes.size(), durability::kWalHeaderSize);
  bytes[4] = durability::kWalFormatVersion + 1;  // future version byte
  WriteAll(path, bytes);
  const WalReadResult r = ReadWalFile(path);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("version"), std::string::npos) << r.error;
  RemoveAll(dir);
}

TEST(WalTest, TruncatesAtFirstBadFrameAndNeverResynchronizes) {
  const std::string dir = TempDir("wal_torn");
  ASSERT_TRUE(durability::EnsureDir(dir));
  const std::string path = dir + "/wal-0.log";
  {
    WalWriter writer(path, WalWriterOptions{});
    ASSERT_TRUE(writer.ok());
    for (uint8_t i = 0; i < 4; ++i) writer.Append({i, i, i});
    ASSERT_TRUE(writer.Close());
  }
  const std::vector<uint8_t> clean = ReadAll(path);
  const uint64_t frame = 3 + durability::kWalFrameOverhead;

  // Torn tail: the last frame is half-written.
  std::vector<uint8_t> torn(clean.begin(), clean.end() - 4);
  WriteAll(path, torn);
  WalReadResult r = ReadWalFile(path);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.payloads.size(), 3u);
  EXPECT_TRUE(r.truncated_tail);
  EXPECT_EQ(r.valid_bytes, durability::kWalHeaderSize + 3 * frame);

  // Corrupt an EARLY frame's payload: everything from it on is dropped,
  // including the still-CRC-valid frames behind it — a valid-looking
  // record past garbage cannot be trusted.
  std::vector<uint8_t> flipped = clean;
  flipped[durability::kWalHeaderSize + frame + durability::kWalFrameOverhead] ^=
      0x01;
  WriteAll(path, flipped);
  r = ReadWalFile(path);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.payloads.size(), 1u);
  EXPECT_TRUE(r.truncated_tail);

  // Trailing garbage after a clean log.
  std::vector<uint8_t> garbage = clean;
  for (int i = 0; i < 5; ++i) garbage.push_back(0xEE);
  WriteAll(path, garbage);
  r = ReadWalFile(path);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.payloads.size(), 4u);
  EXPECT_TRUE(r.truncated_tail);
  RemoveAll(dir);
}

// ---------------------------------------------------------------------
// Record codec.

// One record of every type (both kSampleDelta shapes).
std::vector<WalRecord> EveryRecordType() {
  std::vector<WalRecord> records;
  WalRecord m;
  m.type = WalRecordType::kMessage;
  m.site = 3;
  m.msg.type = kWsworRegular;
  m.msg.a = 42;
  m.msg.x = 7.5;
  m.msg.y = 0.125;
  m.msg.seq = 17;
  m.msg.epoch = 2;
  records.push_back(m);
  WalRecord t;
  t.type = WalRecordType::kThresholdBump;
  t.threshold = 123.456;
  records.push_back(t);
  WalRecord e;
  e.type = WalRecordType::kEpochChange;
  e.epoch = -1;
  records.push_back(e);
  WalRecord d;
  d.type = WalRecordType::kSampleDelta;
  d.added = KeyedItem{Item{99, 4.0}, 17.25};
  d.evicted_valid = true;
  d.evicted_id = 7;
  records.push_back(d);
  WalRecord d2 = d;
  d2.evicted_valid = false;
  d2.evicted_id = 0;
  records.push_back(d2);
  WalRecord s;
  s.type = WalRecordType::kStepMark;
  s.step = 1234567;
  records.push_back(s);
  WalRecord c;
  c.type = WalRecordType::kCheckpointMark;
  c.step = 3;
  records.push_back(c);
  return records;
}

TEST(WalRecordTest, RoundtripsEveryRecordType) {
  for (const WalRecord& record : EveryRecordType()) {
    const std::vector<uint8_t> bytes = EncodeWalRecord(record);
    const auto back = DecodeWalRecord(bytes);
    ASSERT_TRUE(back.has_value())
        << durability::WalRecordTypeName(record.type);
    EXPECT_EQ(back->type, record.type);
    EXPECT_EQ(back->site, record.site);
    EXPECT_EQ(back->msg.type, record.msg.type);
    EXPECT_EQ(back->msg.a, record.msg.a);
    EXPECT_EQ(back->msg.x, record.msg.x);
    EXPECT_EQ(back->msg.seq, record.msg.seq);
    EXPECT_EQ(back->threshold, record.threshold);
    EXPECT_EQ(back->epoch, record.epoch);
    EXPECT_EQ(back->added.item.id, record.added.item.id);
    EXPECT_EQ(back->added.key, record.added.key);
    EXPECT_EQ(back->evicted_valid, record.evicted_valid);
    EXPECT_EQ(back->evicted_id, record.evicted_id);
    EXPECT_EQ(back->step, record.step);
    // Trailing byte rejected (no silent over-read).
    std::vector<uint8_t> extra = bytes;
    extra.push_back(0);
    EXPECT_FALSE(DecodeWalRecord(extra).has_value());
    // Truncations rejected.
    for (size_t n = 0; n < bytes.size(); ++n) {
      const std::vector<uint8_t> cut(bytes.begin(),
                                     bytes.begin() + static_cast<long>(n));
      EXPECT_FALSE(DecodeWalRecord(cut).has_value());
    }
  }
  EXPECT_FALSE(DecodeWalRecord({0x77}).has_value());  // unknown type
}

// The writer encodes each record in place behind its frame header; the
// bytes must equal a frame of EncodeWalRecord's output, so the on-disk
// format (and codec_test's golden vectors) cannot drift from the codec.
TEST(WalRecordTest, InPlaceFramesEqualEncodedRecords) {
  const std::string dir = TempDir("wal_in_place");
  ASSERT_TRUE(durability::EnsureDir(dir));
  const std::string path = dir + "/wal-0.log";
  const std::vector<WalRecord> records = EveryRecordType();
  std::vector<uint8_t> expected(durability::kWalMagic,
                                durability::kWalMagic + 4);
  expected.push_back(durability::kWalFormatVersion);
  const size_t header = expected.size();
  {
    WalWriter writer(path, WalWriterOptions{});
    ASSERT_TRUE(writer.ok()) << writer.error();
    for (const WalRecord& record : records) {
      const std::vector<uint8_t> payload = EncodeWalRecord(record);
      const size_t start = expected.size();
      sim::PutU32Le(&expected, static_cast<uint32_t>(payload.size()));
      sim::PutU32Le(&expected, Crc32(payload.data(), payload.size()));
      expected.insert(expected.end(), payload.begin(), payload.end());
      EXPECT_EQ(writer.Append(record), expected.size() - start)
          << durability::WalRecordTypeName(record.type);
    }
    ASSERT_TRUE(writer.Close());
    EXPECT_EQ(writer.stats().appends, records.size());
    EXPECT_EQ(writer.stats().bytes_appended, expected.size() - header);
  }
  EXPECT_EQ(ReadAll(path), expected);
  const WalReadResult r = ReadWalFile(path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.truncated_tail);
  ASSERT_EQ(r.payloads.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(r.payloads[i], EncodeWalRecord(records[i])) << i;
  }
  RemoveAll(dir);
}

// A kMessage record from site `site`, encoded by hand so the site varint
// can hold any value.
std::vector<uint8_t> MessageRecordBytes(uint64_t site) {
  sim::Payload msg;
  msg.type = kWsworRegular;
  msg.a = 300;
  msg.x = 2.5;
  const std::vector<uint8_t> wire = sim::EncodePayload(msg);
  std::vector<uint8_t> bytes = {static_cast<uint8_t>(WalRecordType::kMessage)};
  sim::PutVarint(&bytes, site);
  sim::PutVarint(&bytes, wire.size());
  bytes.insert(bytes.end(), wire.begin(), wire.end());
  return bytes;
}

TEST(WalRecordTest, RejectsSiteOutsideIntRange) {
  const auto max_site = DecodeWalRecord(MessageRecordBytes(INT32_MAX));
  ASSERT_TRUE(max_site.has_value());
  EXPECT_EQ(max_site->site, INT32_MAX);
  // Never narrowed: 2^32 + 1 is not site 1, and 2^31 is not INT_MIN.
  for (uint64_t site : {(uint64_t{1} << 32) + 1, uint64_t{1} << 31}) {
    EXPECT_FALSE(DecodeWalRecord(MessageRecordBytes(site)).has_value())
        << site;
  }
}

// ---------------------------------------------------------------------
// Checkpoint codec + atomic write / fallback lifecycle.

ShardCheckpoint SampleCheckpoint() {
  ShardCheckpoint c;
  c.checkpoint_seq = 5;
  c.step = 321;
  c.wal_records_logged = 777;
  c.snapshot.publish_seq = 5;
  c.snapshot.state_version = 40;
  c.snapshot.steps = 321;
  c.snapshot.session_epoch = 1;
  c.snapshot.stale = false;
  c.snapshot.sample.kind = SampleKind::kTopKey;
  c.snapshot.sample.target_size = 4;
  c.snapshot.sample.state_version = 40;
  c.snapshot.sample.entries = {KeyedItem{Item{1, 2.0}, 9.5},
                               KeyedItem{Item{2, 1.0}, 3.25}};
  c.snapshot.threshold = 3.25;
  c.coordinator.rng[0] = 11;
  c.coordinator.rng[3] = 44;
  c.coordinator.announced_epoch = 2;
  c.coordinator.early_received = 10;
  c.coordinator.regular_received = 20;
  c.coordinator.state_version = 40;
  c.coordinator.summary = c.snapshot.sample;
  c.coordinator.saturated_levels = {0, 3};
  c.session.peers = {{1, 7, 7, 0}, {0, 3, 5, 3}};
  c.session.transcript_hash = 0xDEADBEEFull;
  c.session.delivered = 9;
  c.site_valid = {1, 0};
  c.site_sessions.resize(2);
  c.site_sessions[0].epoch = 1;
  c.site_sessions[0].next_seq = 8;
  sim::Payload unacked;
  unacked.type = kWsworRegular;
  unacked.a = 5;
  unacked.x = 2.0;
  unacked.seq = 7;
  unacked.epoch = 1;
  c.site_sessions[0].unacked = {unacked};
  c.site_sessions[1].down = true;
  c.site_sessions[1].down_remaining = 3;
  c.sites.resize(1);
  c.sites[0].rng[1] = 99;
  c.sites[0].filter.has_pending = true;
  c.sites[0].filter.pending = 0.75;
  c.sites[0].threshold = 3.25;
  c.sites[0].saturated = {1, 0, 1};
  c.transport.channels.resize(4);
  c.transport.channels[2].next_index = 6;
  c.transport.channels[2].held = {{9, unacked}};
  c.transport.forwarded = 100;
  c.transport.dropped = 3;
  c.kills_done = 1;
  c.last_kill_step = 200;
  return c;
}

TEST(CheckpointTest, EncodeDecodeIsBitExact) {
  const ShardCheckpoint c = SampleCheckpoint();
  const std::vector<uint8_t> bytes = EncodeCheckpoint(c);
  const auto back = DecodeCheckpoint(bytes);
  ASSERT_TRUE(back.has_value());
  // Bit-exactness via re-encode: the codec is canonical (no optional
  // representations), so equal bytes iff equal state.
  EXPECT_EQ(EncodeCheckpoint(*back), bytes);
  EXPECT_EQ(back->checkpoint_seq, c.checkpoint_seq);
  EXPECT_EQ(back->step, c.step);
  EXPECT_EQ(back->snapshot.sample.entries.size(), 2u);
  EXPECT_EQ(back->snapshot.sample.entries[0].key, 9.5);
  EXPECT_EQ(back->session.peers.size(), 2u);
  EXPECT_EQ(back->site_sessions[0].unacked.size(), 1u);
  EXPECT_EQ(back->transport.channels[2].held.size(), 1u);
  EXPECT_EQ(back->kills_done, 1u);
  // Any single truncation fails loudly.
  for (size_t n : {size_t{0}, size_t{4}, bytes.size() / 2, bytes.size() - 1}) {
    const std::vector<uint8_t> cut(bytes.begin(),
                                   bytes.begin() + static_cast<long>(n));
    EXPECT_FALSE(DecodeCheckpoint(cut).has_value()) << n;
  }
}

// The checkpoint layout is an on-disk compatibility surface like the
// WAL's: a codec change must leave these bytes alone.
TEST(CheckpointTest, EncodedBytesArePinned) {
  const std::vector<uint8_t> bytes = EncodeCheckpoint(SampleCheckpoint());
  EXPECT_EQ(bytes.size(), 381u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0xAF8C9B81u);
}

TEST(CheckpointTest, RejectsUnknownSampleKind) {
  ShardCheckpoint c = SampleCheckpoint();
  c.snapshot.sample.kind = static_cast<SampleKind>(9);
  EXPECT_FALSE(DecodeCheckpoint(EncodeCheckpoint(c)).has_value());
}

TEST(CheckpointTest, LoadFallsBackWhenNewestGenerationIsCorrupt) {
  const std::string dir = TempDir("ckpt_fallback");
  ASSERT_TRUE(durability::EnsureDir(dir));
  ShardCheckpoint older = SampleCheckpoint();
  older.checkpoint_seq = 6;
  ShardCheckpoint newer = SampleCheckpoint();
  newer.checkpoint_seq = 7;
  newer.step = 400;
  std::string error;
  ASSERT_TRUE(durability::WriteCheckpointFile(dir, older.checkpoint_seq,
                                              EncodeCheckpoint(older), &error))
      << error;
  ASSERT_TRUE(durability::WriteCheckpointFile(dir, newer.checkpoint_seq,
                                              EncodeCheckpoint(newer), &error))
      << error;
  auto loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->checkpoint_seq, 7u);

  // Corrupt the newest: one body bit flip breaks the CRC.
  const std::string newest = durability::CheckpointPath(dir, 7);
  std::vector<uint8_t> bytes = ReadAll(newest);
  bytes[bytes.size() / 2] ^= 0x10;
  WriteAll(newest, bytes);
  loaded = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->checkpoint_seq, 6u);
  EXPECT_EQ(loaded->step, 321u);
  RemoveAll(dir);
}

// Retention keeps the newest OLDER checkpoint that exists, which is not
// always seq - 1: a kill while checkpoint 7 was being written leaves
// wal-7.log without ckpt-7.bin, and the recovery checkpoint 8 must keep
// ckpt-6.bin and every segment from wal-6.log on. Temp files of
// unfinished writes go. With no older checkpoint at all, every segment
// back to genesis stays.
TEST(CheckpointTest, RetentionKeepsTheNewestOlderCheckpointThatExists) {
  const std::string dir = TempDir("ckpt_retention");
  ASSERT_TRUE(durability::EnsureDir(dir));
  const std::vector<uint8_t> bytes = EncodeCheckpoint(SampleCheckpoint());
  const auto write = [&](uint64_t seq) {
    std::string error;
    ASSERT_TRUE(durability::WriteCheckpointFile(dir, seq, bytes, &error))
        << error;
  };
  for (uint64_t seq = 0; seq <= 8; ++seq) {
    WriteAll(durability::WalSegmentPath(dir, seq), {});
  }
  write(1);  // genesis: no older checkpoint, so nothing is pruned
  EXPECT_TRUE(Exists(durability::WalSegmentPath(dir, 0)));
  write(5);
  write(6);
  WriteAll(durability::CheckpointPath(dir, 7) + ".tmp", {1, 2, 3});
  write(8);  // checkpoint 7 never finished
  for (uint64_t seq : {0, 1, 5}) {
    EXPECT_FALSE(Exists(durability::CheckpointPath(dir, seq))) << seq;
    EXPECT_FALSE(Exists(durability::WalSegmentPath(dir, seq))) << seq;
  }
  EXPECT_TRUE(Exists(durability::CheckpointPath(dir, 6)));
  for (uint64_t seq : {6, 7, 8}) {
    EXPECT_TRUE(Exists(durability::WalSegmentPath(dir, seq))) << seq;
  }
  EXPECT_TRUE(TempFiles(dir).empty());
  write(9);  // back to the two-generation steady state
  EXPECT_FALSE(Exists(durability::CheckpointPath(dir, 6)));
  EXPECT_FALSE(Exists(durability::WalSegmentPath(dir, 6)));
  EXPECT_FALSE(Exists(durability::WalSegmentPath(dir, 7)));
  EXPECT_TRUE(Exists(durability::CheckpointPath(dir, 8)));
  EXPECT_TRUE(Exists(durability::WalSegmentPath(dir, 8)));
  RemoveAll(dir);
}

// ---------------------------------------------------------------------
// The recovery guarantee.

Workload DurabilityWorkload(int k, uint64_t n, uint64_t seed) {
  return WorkloadBuilder()
      .num_sites(k)
      .num_items(n)
      .seed(seed)
      .weights(std::make_unique<UniformWeights>(1.0, 32.0))
      .partitioner(std::make_unique<RandomPartitioner>())
      .Build();
}

DurabilityOptions Opts(const std::string& dir) {
  DurabilityOptions options;
  options.dir = dir;
  options.commit_interval_steps = 4;
  options.checkpoint_interval_steps = 32;
  return options;
}

// The encoded bytes of a checkpoint's snapshot core alone: equal bytes
// mean every ShardSnapshot field — stamps, sample, threshold, message
// stats — is bit-identical.
std::vector<uint8_t> SnapshotBytes(const ShardCheckpoint& checkpoint) {
  ShardCheckpoint core;
  core.snapshot = checkpoint.snapshot;
  return EncodeCheckpoint(core);
}

// A durable run with kills disabled is bit-identical to the plain fault
// harness: the WAL/checkpoint machinery must be an observer, never a
// participant. Its checkpoints carry the same snapshot core on both
// backends, message accounting included.
TEST(DurableShardTest, NoKillRunMatchesFaultyRunBitForBit) {
  const WsworConfig config{.num_sites = 3, .sample_size = 6, .seed = 21};
  const Workload w = DurabilityWorkload(3, 200, /*seed=*/5);
  FaultConfig faults;
  faults.seed = 77;
  faults.drop_prob = 0.05;
  faults.delay_prob = 0.1;
  faults.max_delay = 2;
  std::vector<ShardCheckpoint> newest;  // per backend, sim first
  for (Backend backend : {Backend::kSim, Backend::kEngine}) {
    faults::FaultyWswor reference(config, faults, backend);
    reference.Run(w);
    const std::string dir = TempDir(backend == Backend::kSim ? "nokill_sim"
                                                             : "nokill_eng");
    {
      DurableWswor durable(config, faults, backend, Opts(dir));
      durable.Run(w);
      const RunReport r = durable.report();
      const RunReport ref = reference.report();
      EXPECT_EQ(r.transcript_hash, ref.transcript_hash);
      EXPECT_EQ(r.delivered, ref.delivered);
      EXPECT_EQ(durable.SampleIds(), reference.SampleIds());
      EXPECT_EQ(r.process_kills, 0u);
      EXPECT_EQ(r.recoveries, 0u);
      EXPECT_GT(r.wal_records_logged, 0u);
      EXPECT_GT(r.checkpoints_written, 0u);
      EXPECT_TRUE(r.recovery_consistent);
    }
    const std::optional<ShardCheckpoint> checkpoint = LoadLatestCheckpoint(dir);
    ASSERT_TRUE(checkpoint.has_value());
    newest.push_back(*checkpoint);
    RemoveAll(dir);
  }
  const query::ShardSnapshot& sim = newest[0].snapshot;
  const query::ShardSnapshot& eng = newest[1].snapshot;
  EXPECT_GT(sim.messages.total_messages(), 0u);
  EXPECT_EQ(eng.messages.total_messages(), sim.messages.total_messages());
  EXPECT_EQ(eng.messages.words, sim.messages.words);
  EXPECT_EQ(eng.state_version, sim.state_version);
  EXPECT_EQ(eng.steps, sim.steps);
  EXPECT_TRUE(SnapshotBytes(newest[1]) == SnapshotBytes(newest[0]))
      << "checkpoint snapshot cores differ across backends";
}

// Kill-only schedules: the recovered run's final state is bit-identical
// to an uninterrupted run's, for every seed, on both backends.
TEST(DurableShardTest, KillAndRecoverIsTranscriptIdenticalAcrossSeeds) {
  const WsworConfig config{.num_sites = 3, .sample_size = 6, .seed = 33};
  const Workload w = DurabilityWorkload(3, 260, /*seed=*/9);
  for (uint64_t fault_seed = 1; fault_seed <= 10; ++fault_seed) {
    FaultConfig kills;
    kills.seed = fault_seed;
    kills.process_kill_prob = 0.02;
    kills.max_process_kills = 2;
    FaultConfig none;
    none.seed = fault_seed;
    for (Backend backend : {Backend::kSim, Backend::kEngine}) {
      faults::FaultyWswor reference(config, none, backend);
      reference.Run(w);
      const std::string dir =
          TempDir("kill_" + std::to_string(fault_seed) +
                  (backend == Backend::kSim ? "_sim" : "_eng"));
      {
        DurableWswor durable(config, kills, backend, Opts(dir));
        durable.Run(w);
        const RunReport r = durable.report();
        const RunReport ref = reference.report();
        EXPECT_EQ(r.transcript_hash, ref.transcript_hash)
            << "fault seed " << fault_seed;
        EXPECT_EQ(r.delivered, ref.delivered) << "fault seed " << fault_seed;
        EXPECT_EQ(durable.SampleIds(), reference.SampleIds())
            << "fault seed " << fault_seed;
        EXPECT_TRUE(r.recovery_consistent) << "fault seed " << fault_seed;
        EXPECT_EQ(r.process_kills, r.recoveries);
        if (r.process_kills > 0) {
          EXPECT_GT(r.wal_records_replayed, 0u)
              << "fault seed " << fault_seed;
          EXPECT_LE(durable.last_recovery().checkpoint_step,
                    durable.last_recovery().durable_step);
        }
        EXPECT_TRUE(r.clean);
      }
      RemoveAll(dir);
    }
  }
}

// Cold resume from disk in a fresh harness object (the CLI's --resume
// path): tear the harness down mid-stream at an arbitrary point, rebuild
// from the directory alone, finish, and match the uninterrupted run.
TEST(DurableShardTest, ColdResumeFromDiskFinishesIdentically) {
  const WsworConfig config{.num_sites = 4, .sample_size = 8, .seed = 55};
  const Workload w = DurabilityWorkload(4, 240, /*seed=*/11);
  FaultConfig none;
  none.seed = 3;
  faults::FaultyWswor reference(config, none, Backend::kSim);
  reference.Run(w);

  const std::string dir = TempDir("cold_resume");
  {
    // First incarnation: feed a prefix, commit/checkpoint on the
    // harness cadence, then die abruptly (uncommitted bytes dropped by
    // the destructor-with-abandon path below).
    DurableWswor first(config, none, Backend::kSim, Opts(dir));
    Workload prefix(w.num_sites(),
                    std::vector<WorkloadEvent>(w.events().begin(),
                                               w.events().begin() + 150));
    first.Run(prefix);
  }
  {
    DurableWswor resumed(config, none, Backend::kSim, Opts(dir));
    EXPECT_EQ(resumed.resume_step(), 150u);
    EXPECT_GE(resumed.recoveries(), 1u);
    resumed.Run(w);
    EXPECT_EQ(resumed.SampleIds(), reference.SampleIds());
    EXPECT_EQ(resumed.report().transcript_hash,
              reference.report().transcript_hash);
    EXPECT_TRUE(resumed.report().recovery_consistent);
  }
  RemoveAll(dir);
}

// Sharded composition: kills in one shard never perturb another, and
// the merged sample matches the non-durable sharded harness's.
TEST(DurableShardTest, ShardedKillsMatchShardedFaultyMerge) {
  const WsworConfig config{.num_sites = 6, .sample_size = 6, .seed = 70};
  const Workload w = DurabilityWorkload(6, 300, /*seed=*/13);
  std::vector<FaultConfig> durable_faults(2);
  durable_faults[0].seed = 5;
  durable_faults[0].process_kill_prob = 0.03;  // shard 0 gets killed
  durable_faults[1].seed = 6;
  std::vector<FaultConfig> plain_faults(2);
  plain_faults[0].seed = 5;
  plain_faults[1].seed = 6;
  faults::ShardedFaultyWswor reference(config, plain_faults, Backend::kSim);
  reference.Run(w);
  const std::string dir = TempDir("sharded");
  {
    ShardedDurableWswor durable(config, durable_faults, Backend::kSim,
                                Opts(dir));
    durable.Run(w);
    EXPECT_EQ(durable.MergedSampleIds(), reference.MergedSampleIds());
    EXPECT_EQ(durable.report().transcript_hash,
              reference.report().transcript_hash);
    EXPECT_GE(durable.shard(0).process_kills(), 1u);
    EXPECT_EQ(durable.shard(1).process_kills(), 0u);
    EXPECT_TRUE(durable.report().recovery_consistent);
    // The sharded report folds the durability counters over the shards.
    RunReport sum;
    for (int j = 0; j < durable.topology().num_shards(); ++j) {
      const RunReport r = durable.shard(j).report();
      sum.process_kills += r.process_kills;
      sum.recoveries += r.recoveries;
      sum.wal_records_logged += r.wal_records_logged;
      sum.checkpoints_written += r.checkpoints_written;
    }
    const RunReport total = durable.report();
    EXPECT_EQ(total.process_kills, sum.process_kills);
    EXPECT_EQ(total.recoveries, sum.recoveries);
    EXPECT_EQ(total.wal_records_logged, sum.wal_records_logged);
    EXPECT_EQ(total.checkpoints_written, sum.checkpoints_written);
  }
  RemoveAll(dir);
}

// Kills layered over active message faults: the sim and engine backends
// must still agree bit for bit on the killed-and-recovered run, and the
// run must never be silently wrong (consistent flag + clean accounting).
TEST(DurableShardTest, KillsUnderMessageFaultsAgreeAcrossBackends) {
  const WsworConfig config{.num_sites = 3, .sample_size = 6, .seed = 41};
  const Workload w = DurabilityWorkload(3, 220, /*seed=*/15);
  for (uint64_t fault_seed = 1; fault_seed <= 5; ++fault_seed) {
    FaultConfig faults;
    faults.seed = fault_seed;
    faults.drop_prob = 0.05;
    faults.duplicate_prob = 0.05;
    faults.delay_prob = 0.05;
    faults.max_delay = 2;
    faults.process_kill_prob = 0.02;
    faults.max_process_kills = 2;
    std::vector<ProbeState> probes;
    std::vector<RunReport> reports;
    for (Backend backend : {Backend::kSim, Backend::kEngine}) {
      const std::string dir =
          TempDir("mixed_" + std::to_string(fault_seed) +
                  (backend == Backend::kSim ? "_sim" : "_eng"));
      DurableWswor durable(config, faults, backend, Opts(dir));
      durable.Run(w);
      probes.push_back(durable.Probe());
      reports.push_back(durable.report());
      RemoveAll(dir);
    }
    EXPECT_EQ(probes[0], probes[1]) << "fault seed " << fault_seed;
    EXPECT_EQ(reports[0].transcript_hash, reports[1].transcript_hash)
        << "fault seed " << fault_seed;
    EXPECT_EQ(reports[0].process_kills, reports[1].process_kills);
    EXPECT_TRUE(reports[0].recovery_consistent) << "seed " << fault_seed;
    EXPECT_TRUE(reports[1].recovery_consistent) << "seed " << fault_seed;
  }
}

// wal_stats() counts the segment the writer thread is closing, so it
// never runs backwards across a checkpoint hand-off (perfbench reads it
// right after one), and every checkpoint's retired segment is synced
// exactly once.
TEST(DurableShardTest, WalStatsCountTheSegmentInFlight) {
  const WsworConfig config{.num_sites = 3, .sample_size = 6, .seed = 21};
  const Workload w = DurabilityWorkload(3, 200, /*seed=*/5);
  FaultConfig none;
  none.seed = 3;
  const std::string dir = TempDir("wal_stats");
  {
    DurableWswor durable(config, none, Backend::kSim, Opts(dir));
    durability::WalStats last;
    durable.Run(w, [&](uint64_t step) {
      const durability::WalStats now = durable.wal_stats();
      EXPECT_GT(now.appends, last.appends) << step;  // a step mark each
      EXPECT_GE(now.commits, last.commits) << step;
      EXPECT_GE(now.bytes_appended, last.bytes_appended) << step;
      EXPECT_GE(now.bytes_committed, last.bytes_committed) << step;
      if (step % Opts(dir).checkpoint_interval_steps == 0) {
        EXPECT_EQ(now.bytes_committed, now.bytes_appended) << step;
      }
      last = now;
    });
    EXPECT_EQ(durable.wal_stats().fsyncs,
              durable.report().checkpoints_written);
  }
  RemoveAll(dir);
}

// Thrown from an on_step hook to stop a Run at a chosen step.
struct StopRun {};

// A SIGKILL while the writer thread persists checkpoint c leaves
// wal-<c>.log holding records, no ckpt-<c>.bin, and perhaps a torn
// ckpt-<c>.bin.tmp. Build that state from a copy of a live directory
// taken a few commits past c's step, then resume from it: the finished
// run matches an uninterrupted one bit for bit, and the recovery
// checkpoint keeps the generation it recovered from.
TEST(DurableShardTest, KillInsideCheckpointWriteWindowRecovers) {
  const WsworConfig config{.num_sites = 3, .sample_size = 6, .seed = 63};
  const Workload w = DurabilityWorkload(3, 240, /*seed=*/19);
  FaultConfig none;
  none.seed = 8;
  faults::FaultyWswor reference(config, none, Backend::kSim);
  reference.Run(w);
  // Opts(): a commit every 4 steps, a checkpoint every 32. Checkpoint 3
  // is captured at step 96; the copy is taken three commits later.
  constexpr uint64_t kSeq = 3;
  constexpr uint64_t kCopyStep = 96 + 3 * 4;
  const std::string live_dir = TempDir("window_live");
  const std::string copy = TempDir("window_copy");
  {
    DurableWswor live(config, none, Backend::kSim, Opts(live_dir));
    live.Run(w, [&](uint64_t step) {
      if (step == kCopyStep) CopyDir(live_dir, copy);
    });
  }
  RemoveAll(live_dir);
  // Handing over checkpoint 3 waited for checkpoint 2's write, and the
  // step thread committed both segments before the copy.
  ASSERT_TRUE(DecodableCheckpoint(durability::CheckpointPath(copy, kSeq - 1)));
  ASSERT_TRUE(ReadWalFile(durability::WalSegmentPath(copy, kSeq - 1)).ok);
  ASSERT_TRUE(ReadWalFile(durability::WalSegmentPath(copy, kSeq)).ok);

  const auto expect_reference = [&](const DurableWswor& run) {
    EXPECT_EQ(run.SampleIds(), reference.SampleIds());
    EXPECT_EQ(run.report().transcript_hash, reference.report().transcript_hash);
    EXPECT_EQ(run.report().delivered, reference.report().delivered);
    EXPECT_TRUE(run.report().recovery_consistent);
  };
  for (const bool torn_tmp : {false, true}) {
    SCOPED_TRACE(torn_tmp ? "torn temp file" : "no temp file");
    const std::string dir = TempDir(torn_tmp ? "window_tmp" : "window_plain");
    // Whatever the copy caught of checkpoint 3 goes; a torn temp file
    // may take its place.
    const auto kill_in_window = [&] {
      CopyDir(copy, dir);
      std::remove(durability::CheckpointPath(dir, kSeq).c_str());
      for (const std::string& name : TempFiles(dir)) {
        std::remove((dir + "/" + name).c_str());
      }
      if (torn_tmp) {
        std::vector<uint8_t> torn =
            ReadAll(durability::CheckpointPath(dir, kSeq - 1));
        torn.resize(torn.size() / 2);
        WriteAll(durability::CheckpointPath(dir, kSeq) + ".tmp", torn);
      }
    };

    kill_in_window();
    {
      DurableWswor resumed(config, none, Backend::kSim, Opts(dir));
      EXPECT_EQ(resumed.last_recovery().checkpoint_seq, kSeq - 1);
      EXPECT_EQ(resumed.last_recovery().durable_step, kCopyStep);
      resumed.Run(w);
      expect_reference(resumed);
    }

    // Again, stopped right after the recovery checkpoint, which the
    // re-feed writes on reaching the durable step; the destructor waits
    // for its write.
    kill_in_window();
    {
      DurableWswor resumed(config, none, Backend::kSim, Opts(dir));
      const auto stop_at_durable_step = [](uint64_t step) {
        if (step == kCopyStep) throw StopRun{};
      };
      EXPECT_THROW(resumed.Run(w, stop_at_durable_step), StopRun);
    }
    const uint64_t recovery_seq = kSeq + 1;
    EXPECT_TRUE(DecodableCheckpoint(durability::CheckpointPath(dir, kSeq - 1)))
        << "the fallback generation was pruned";
    EXPECT_TRUE(
        DecodableCheckpoint(durability::CheckpointPath(dir, recovery_seq)));
    for (uint64_t seq = kSeq - 1; seq <= recovery_seq; ++seq) {
      EXPECT_TRUE(ReadWalFile(durability::WalSegmentPath(dir, seq)).ok) << seq;
    }
    EXPECT_FALSE(Exists(durability::CheckpointPath(dir, kSeq - 2)));
    EXPECT_FALSE(Exists(durability::WalSegmentPath(dir, kSeq - 2)));
    EXPECT_TRUE(TempFiles(dir).empty());
    {
      DurableWswor resumed(config, none, Backend::kSim, Opts(dir));
      resumed.Run(w);
      expect_reference(resumed);
    }
    RemoveAll(dir);
  }
  RemoveAll(copy);
}

// A failed background write is fatal, never swallowed. A directory in
// the way of checkpoint 1's temp file makes the writer's open fail
// (EISDIR); the next hand-off raises it, or, when the stream ends first,
// the end of Run.
TEST(DurableShardDeathTest, FailedCheckpointWriteIsFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const WsworConfig config{.num_sites = 3, .sample_size = 6, .seed = 21};
  FaultConfig none;
  none.seed = 2;
  const std::string dir = TempDir("write_failure");
  const std::string blocker = durability::CheckpointPath(dir, 1) + ".tmp";
  const std::string expected =
      "checkpoint write failed: open .*ckpt-1\\.bin\\.tmp: Is a directory";
  // Opts() checkpoints every 32 steps: 100 steps hand over checkpoint 2
  // after checkpoint 1 failed; 20 steps write only the final one.
  for (const uint64_t steps : {100, 20}) {
    SCOPED_TRACE(steps);
    RemoveAll(dir);
    ASSERT_TRUE(durability::EnsureDir(dir));
    ASSERT_TRUE(durability::EnsureDir(blocker));
    const Workload w = DurabilityWorkload(3, steps, /*seed=*/5);
    const auto run = [&] {
      DurableWswor durable(config, none, Backend::kSim, Opts(dir));
      durable.Run(w);
    };
    EXPECT_DEATH(run(), expected);
  }
  RemoveAll(dir);
}

// ---------------------------------------------------------------------
// Corruption fuzz: never silently wrong.

TEST(DurabilityFuzzTest, CorruptedDurableStateRecoversCorrectlyOrFlagged) {
  const WsworConfig config{.num_sites = 3, .sample_size = 6, .seed = 91};
  const Workload w = DurabilityWorkload(3, 160, /*seed=*/17);
  FaultConfig none;
  none.seed = 1;
  faults::FaultyWswor reference(config, none, Backend::kSim);
  reference.Run(w);
  const std::vector<uint64_t> expected = reference.SampleIds();

  for (uint64_t fuzz_seed = 1; fuzz_seed <= 30; ++fuzz_seed) {
    const std::string dir = TempDir("fuzz_" + std::to_string(fuzz_seed));
    {
      // Interrupted run: a durable prefix is on disk, uncommitted tail
      // records and the partial step are lost with the teardown.
      DurableWswor first(config, none, Backend::kSim, Opts(dir));
      Workload prefix(w.num_sites(),
                      std::vector<WorkloadEvent>(
                          w.events().begin(),
                          w.events().begin() + 90 +
                              static_cast<long>(fuzz_seed % 23)));
      first.Run(prefix);
    }
    // Seeded corruption over the durable files: bit flip, truncation,
    // or deletion.
    Rng rng(fuzz_seed * 7919);
    std::vector<std::string> files;
    for (uint64_t seq = 0; seq < 32; ++seq) {
      for (const std::string& path :
           {durability::WalSegmentPath(dir, seq),
            durability::CheckpointPath(dir, seq)}) {
        if (!ReadAll(path).empty()) files.push_back(path);
      }
    }
    ASSERT_FALSE(files.empty());
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < mutations; ++m) {
      const std::string& victim =
          files[rng.NextBounded(static_cast<uint64_t>(files.size()))];
      std::vector<uint8_t> bytes = ReadAll(victim);
      if (bytes.empty()) continue;
      switch (rng.NextBounded(3)) {
        case 0: {  // bit flip
          const uint64_t at = rng.NextBounded(bytes.size());
          bytes[at] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
          WriteAll(victim, bytes);
          break;
        }
        case 1: {  // truncation (torn write)
          bytes.resize(rng.NextBounded(bytes.size()));
          WriteAll(victim, bytes);
          break;
        }
        default:  // deletion
          std::remove(victim.c_str());
          break;
      }
    }
    // Recover from whatever survived and finish the stream. The
    // contract: either the final sample matches the uninterrupted
    // reference, or the run is FLAGGED (inconsistent replay cross-check
    // or un-clean report) — never an unflagged wrong answer.
    {
      DurableWswor resumed(config, none, Backend::kSim, Opts(dir));
      resumed.Run(w);
      const RunReport r = resumed.report();
      if (r.recovery_consistent && r.clean) {
        EXPECT_EQ(resumed.SampleIds(), expected)
            << "silently wrong sample, fuzz seed " << fuzz_seed;
        EXPECT_EQ(r.transcript_hash, reference.report().transcript_hash)
            << "silently wrong transcript, fuzz seed " << fuzz_seed;
      }
    }
    RemoveAll(dir);
  }
}

}  // namespace
}  // namespace dwrs
