#include <vector>

#include "gtest/gtest.h"
#include "core/config.h"
#include "durability/records.h"
#include "durability/wal.h"
#include "faults/session.h"
#include "random/rng.h"
#include "sim/codec.h"
#include "unweighted/distributed_swor.h"

namespace dwrs {
namespace {

using sim::ByteReader;
using sim::DecodePayload;
using sim::EncodePayload;
using sim::Payload;
using sim::PutVarint;

TEST(VarintTest, RoundTripSmallAndLarge) {
  const std::vector<uint64_t> cases = {
      0, 1, 127, 128, 300, 1ull << 20, 1ull << 40, UINT64_MAX};
  for (uint64_t x : cases) {
    std::vector<uint8_t> buf;
    PutVarint(&buf, x);
    ByteReader r(buf);
    EXPECT_EQ(r.Varint(), x);
    EXPECT_TRUE(r.done()) << x;
  }
}

TEST(VarintTest, SmallValuesAreOneByte) {
  std::vector<uint8_t> buf;
  PutVarint(&buf, 42);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(VarintTest, TruncationDetected) {
  std::vector<uint8_t> buf;
  PutVarint(&buf, 1ull << 40);
  buf.pop_back();
  ByteReader r(buf);
  r.Varint();
  EXPECT_FALSE(r.ok());
}

TEST(VarintTest, OverlongEncodingRejected) {
  std::vector<uint8_t> buf(11, 0x80);  // 11 continuation bytes
  ByteReader r(buf);
  r.Varint();
  EXPECT_FALSE(r.ok());
}

TEST(ByteReaderTest, TypedGettersRejectOutOfRangeValues) {
  std::vector<uint8_t> buf;
  PutVarint(&buf, UINT32_MAX);
  PutVarint(&buf, uint64_t{UINT32_MAX} + 1);
  {
    ByteReader r(buf);
    EXPECT_EQ(r.Varint<uint32_t>(), UINT32_MAX);
    EXPECT_EQ(r.Varint<uint32_t>(), 0u);  // 2^32 does not fit
    EXPECT_FALSE(r.ok());
  }
  for (int64_t x : {int64_t{INT32_MIN} - 1, int64_t{INT32_MAX} + 1}) {
    buf.clear();
    sim::PutZigzag(&buf, x);
    ByteReader r(buf);
    EXPECT_EQ(r.Zigzag<int>(), 0);
    EXPECT_FALSE(r.ok()) << x;
    EXPECT_EQ(ByteReader(buf).Zigzag(), x);  // fits int64_t
  }
  buf = {2};  // a bool byte must be 0 or 1
  ByteReader r(buf);
  r.Bool();
  EXPECT_FALSE(r.ok());
}

TEST(ByteReaderTest, FirstFailureLatchesDefaults) {
  // Element count 2^27 (past the allocation bound), then valid fields:
  // after the bad count every getter returns its default, so nothing
  // downstream is sized or read from bytes past the malformed field.
  std::vector<uint8_t> buf;
  PutVarint(&buf, uint64_t{1} << 27);
  PutVarint(&buf, 5);
  sim::PutF64(&buf, 2.5);
  sim::PutU32Le(&buf, 7);
  ByteReader r(buf);
  EXPECT_EQ(r.Count(), 0u);
  EXPECT_EQ(r.Varint(), 0u);
  EXPECT_EQ(r.F64(), 0.0);
  EXPECT_EQ(r.U32Le(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
}

TEST(CodecTest, PayloadRoundTrip) {
  Payload msg;
  msg.type = 3;
  msg.a = 123456789;
  msg.x = 2.5;
  msg.y = 3.14159e12;
  const auto bytes = EncodePayload(msg);
  const auto decoded = DecodePayload(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, msg.type);
  EXPECT_EQ(decoded->a, msg.a);
  EXPECT_DOUBLE_EQ(decoded->x, msg.x);
  EXPECT_DOUBLE_EQ(decoded->y, msg.y);
}

TEST(CodecTest, OmitsZeroDoubles) {
  Payload epoch_update;
  epoch_update.type = 4;
  epoch_update.a = 0;
  epoch_update.x = 0.0;
  epoch_update.y = 0.0;
  // type + a + flags = 3 bytes only.
  EXPECT_EQ(EncodePayload(epoch_update).size(), 3u);
  Payload with_x = epoch_update;
  with_x.x = 8.0;
  EXPECT_EQ(EncodePayload(with_x).size(), 11u);
}

TEST(CodecTest, EncodedSizeWithinWordAccounting) {
  // The paper counts <= 4 machine words per message; the wire encoding
  // must fit in that budget (32 bytes) for every protocol message shape.
  for (uint32_t type : {1u, 2u, 3u, 4u}) {
    Payload msg;
    msg.type = type;
    msg.a = (1ull << 40) - 1;
    msg.x = 1.7976931348623157e308;
    msg.y = 4.9e-324;
    EXPECT_LE(sim::EncodedSize(msg), 32u);
  }
}

// ---------------------------------------------------------------------
// Golden wire-format values: one pinned byte sequence per protocol
// message shape (including the session layer's seq/epoch reliability
// header). A failure here means the wire format silently drifted —
// update the goldens only for a deliberate, versioned format change.

void ExpectGolden(const Payload& msg, const std::vector<uint8_t>& golden) {
  EXPECT_EQ(EncodePayload(msg), golden);
  const auto decoded = DecodePayload(golden);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, msg.type);
  EXPECT_EQ(decoded->a, msg.a);
  EXPECT_EQ(decoded->seq, msg.seq);
  EXPECT_EQ(decoded->epoch, msg.epoch);
  EXPECT_DOUBLE_EQ(decoded->x, msg.x);
  EXPECT_DOUBLE_EQ(decoded->y, msg.y);
}

TEST(CodecGoldenTest, WsworEarly) {
  Payload msg;
  msg.type = kWsworEarly;
  msg.a = 7;     // item id
  msg.x = 3.0;   // weight
  ExpectGolden(msg, {0x01, 0x07, 0x01,  // type, a, flags: x only
                     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40});
}

TEST(CodecGoldenTest, WsworRegular) {
  Payload msg;
  msg.type = kWsworRegular;
  msg.a = 300;
  msg.x = 2.5;  // weight
  msg.y = 1.5;  // key
  ExpectGolden(msg, {0x02, 0xAC, 0x02, 0x03,  // type, varint a, flags: x|y
                     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,
                     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F});
}

TEST(CodecGoldenTest, WsworLevelSaturated) {
  Payload msg;
  msg.type = kWsworLevelSaturated;
  msg.a = 5;  // level index
  ExpectGolden(msg, {0x03, 0x05, 0x00});
}

TEST(CodecGoldenTest, WsworUpdateEpoch) {
  Payload msg;
  msg.type = kWsworUpdateEpoch;
  msg.x = 8.0;  // threshold r^j
  ExpectGolden(msg, {0x04, 0x00, 0x01,
                     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x40});
}

TEST(CodecGoldenTest, UsworCandidateWithReliabilityHeader) {
  // An unweighted candidate as stamped by the session layer: every
  // optional field present, exercising the full flags byte.
  Payload msg;
  msg.type = kUsworCandidate;
  msg.a = 9;
  msg.x = 1.0;   // weight (carried for interface parity)
  msg.y = 0.25;  // uniform key
  msg.seq = 130;
  msg.epoch = 2;
  ExpectGolden(msg, {0x01, 0x09, 0x0F,        // flags: x|y|seq|epoch
                     0x82, 0x01,              // varint seq 130
                     0x02,                    // varint epoch 2
                     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
                     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F});
}

TEST(CodecGoldenTest, UsworThreshold) {
  Payload msg;
  msg.type = kUsworThreshold;
  msg.x = 0.25;  // tau-hat
  ExpectGolden(msg, {0x02, 0x00, 0x01,
                     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F});
}

TEST(CodecGoldenTest, SessionAck) {
  Payload msg;
  msg.type = faults::kSessionAck;
  msg.a = 41;  // cumulative seq
  msg.epoch = 3;
  ExpectGolden(msg, {0x18, 0x29, 0x08, 0x03});
}

TEST(CodecGoldenTest, SessionNack) {
  Payload msg;
  msg.type = faults::kSessionNack;
  msg.a = 2;  // retransmit-from seq
  msg.epoch = 1;
  ExpectGolden(msg, {0x19, 0x02, 0x08, 0x01});
}

TEST(CodecGoldenTest, SessionHello) {
  // First stamped message of a restarted site's epoch.
  Payload msg;
  msg.type = faults::kSessionHello;
  msg.seq = 1;
  msg.epoch = 1;
  ExpectGolden(msg, {0x1A, 0x00, 0x0C, 0x01, 0x01});
}

// --- WAL record golden vectors ----------------------------------------
//
// The durability WAL (src/durability/records.h) persists these to disk;
// the byte layout is a compatibility surface exactly like the message
// wire format above. One golden per record type, asserting encode AND
// decode against pinned bytes.

void ExpectWalGolden(const durability::WalRecord& record,
                     const std::vector<uint8_t>& golden) {
  EXPECT_EQ(durability::EncodeWalRecord(record), golden)
      << durability::WalRecordTypeName(record.type);
  const auto decoded = durability::DecodeWalRecord(golden);
  ASSERT_TRUE(decoded.has_value())
      << durability::WalRecordTypeName(record.type);
  EXPECT_EQ(durability::EncodeWalRecord(*decoded), golden);
}

TEST(WalRecordGoldenTest, Message) {
  // A kWsworRegular arrival wrapped in a WAL record: type, site varint,
  // wire length varint, then the message codec's bytes verbatim.
  durability::WalRecord record;
  record.type = durability::WalRecordType::kMessage;
  record.site = 2;
  record.msg.type = kWsworRegular;
  record.msg.a = 300;
  record.msg.x = 2.5;
  record.msg.y = 1.5;
  ExpectWalGolden(record,
                  {0x01, 0x02, 0x14,              // type, site, wire len
                   0x02, 0xAC, 0x02, 0x03,        // inner: type, a, flags
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F});
}

TEST(WalRecordGoldenTest, ThresholdBump) {
  durability::WalRecord record;
  record.type = durability::WalRecordType::kThresholdBump;
  record.threshold = 8.0;
  ExpectWalGolden(record, {0x02,
                           0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x40});
}

TEST(WalRecordGoldenTest, EpochChange) {
  durability::WalRecord record;
  record.type = durability::WalRecordType::kEpochChange;
  record.epoch = 3;
  ExpectWalGolden(record, {0x03, 0x06});  // zigzag(3) = 6
  record.epoch = -1;
  ExpectWalGolden(record, {0x03, 0x01});  // zigzag(-1) = 1
}

TEST(WalRecordGoldenTest, SampleDelta) {
  durability::WalRecord record;
  record.type = durability::WalRecordType::kSampleDelta;
  record.added = KeyedItem{Item{7, 3.0}, 1.5};
  record.evicted_valid = true;
  record.evicted_id = 300;
  ExpectWalGolden(record,
                  {0x04, 0x07,  // type, added id
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40,  // weight
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,  // key
                   0x01, 0xAC, 0x02});  // evicted flag + id varint
  record.evicted_valid = false;
  record.evicted_id = 0;
  ExpectWalGolden(record,
                  {0x04, 0x07,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,
                   0x00});  // no eviction: flag only
}

TEST(WalRecordGoldenTest, StepAndCheckpointMarks) {
  durability::WalRecord record;
  record.type = durability::WalRecordType::kStepMark;
  record.step = 300;
  ExpectWalGolden(record, {0x05, 0xAC, 0x02});
  record.type = durability::WalRecordType::kCheckpointMark;
  record.step = 5;
  ExpectWalGolden(record, {0x06, 0x05});
}

TEST(WalRecordGoldenTest, WalFileFraming) {
  // A whole one-record segment, byte for byte: "DWAL" magic, version 1,
  // then frame = u32 payload length LE | u32 CRC32(payload) LE | payload
  // for a kStepMark(1) record.
  const std::vector<uint8_t> golden = {
      'D', 'W', 'A', 'L', 0x01,       // header (kWalHeaderSize = 5)
      0x02, 0x00, 0x00, 0x00,         // payload length
      0x2C, 0xD6, 0xA9, 0x4B,         // CRC32({0x05, 0x01}) = 0x4BA9D62C
      0x05, 0x01};                    // payload
  const std::vector<uint8_t> payload = {0x05, 0x01};
  EXPECT_EQ(durability::Crc32(payload.data(), payload.size()), 0x4BA9D62Cu);
  EXPECT_EQ(golden[4], durability::kWalFormatVersion);
  EXPECT_EQ(golden.size(),
            durability::kWalHeaderSize + durability::kWalFrameOverhead +
                payload.size());
}

TEST(CodecTest, UnstampedEncodingIsUnchangedByHeaderFields) {
  // A zero seq/epoch (reliable network) must cost zero wire bytes — the
  // pre-fault-model encoding, byte for byte.
  Payload msg;
  msg.type = 3;
  msg.a = 123456789;
  msg.x = 2.5;
  const auto bytes = EncodePayload(msg);
  Payload stamped = msg;
  stamped.seq = 6;
  stamped.epoch = 1;
  EXPECT_GT(EncodePayload(stamped).size(), bytes.size());
  EXPECT_EQ(sim::EncodedSize(msg), bytes.size());
}

TEST(CodecTest, RejectsZeroedHeaderFieldsWithFlagsSet) {
  // flags claim a seq/epoch but encode 0 — non-canonical, rejected.
  EXPECT_FALSE(DecodePayload({0x01, 0x02, 0x04, 0x00}).has_value());
  EXPECT_FALSE(DecodePayload({0x01, 0x02, 0x08, 0x00}).has_value());
  // The same for a flagged x or y of 0.0, or of -0.0, which the encoder
  // omits as well.
  for (const uint8_t flag : {0x01, 0x02}) {
    for (const uint8_t sign : {0x00, 0x80}) {
      std::vector<uint8_t> bytes = {0x01, 0x02, flag, 0, 0, 0, 0, 0, 0, 0};
      bytes.push_back(sign);
      EXPECT_FALSE(DecodePayload(bytes).has_value())
          << int{flag} << " " << int{sign};
    }
  }
  // Truncated seq varint.
  EXPECT_FALSE(DecodePayload({0x01, 0x02, 0x04}).has_value());
}

TEST(CodecTest, RejectsMalformedInputs) {
  EXPECT_FALSE(DecodePayload({}).has_value());
  EXPECT_FALSE(DecodePayload({0x01}).has_value());           // missing a
  EXPECT_FALSE(DecodePayload({0x01, 0x02}).has_value());     // missing flags
  EXPECT_FALSE(DecodePayload({0x01, 0x02, 0x04}).has_value());  // bad flags
  EXPECT_FALSE(
      DecodePayload({0x01, 0x02, 0x01, 0xAA}).has_value());  // short double
  // Trailing garbage after a valid message.
  Payload msg;
  msg.type = 1;
  msg.a = 7;
  auto bytes = EncodePayload(msg);
  bytes.push_back(0x00);
  EXPECT_FALSE(DecodePayload(bytes).has_value());
}

TEST(CodecTest, FuzzRoundTrip) {
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    Payload msg;
    msg.type = static_cast<uint32_t>(rng.NextBounded(16));
    msg.a = rng.NextU64() >> static_cast<int>(rng.NextBounded(64));
    msg.x = rng.NextBit() ? rng.NextDouble() * 1e9 : 0.0;
    msg.y = rng.NextBit() ? rng.NextDouble() : 0.0;
    msg.seq = rng.NextBit()
                  ? static_cast<uint32_t>(1 + rng.NextBounded(UINT32_MAX))
                  : 0;
    msg.epoch =
        rng.NextBit() ? static_cast<uint32_t>(1 + rng.NextBounded(1000)) : 0;
    const auto decoded = DecodePayload(EncodePayload(msg));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, msg.type);
    EXPECT_EQ(decoded->a, msg.a);
    EXPECT_EQ(decoded->seq, msg.seq);
    EXPECT_EQ(decoded->epoch, msg.epoch);
    EXPECT_DOUBLE_EQ(decoded->x, msg.x);
    EXPECT_DOUBLE_EQ(decoded->y, msg.y);
  }
}

TEST(CodecTest, FuzzDecodeNeverCrashes) {
  Rng rng(78);
  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> bytes(rng.NextBounded(24));
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
    (void)DecodePayload(bytes);  // must not crash or UB; result optional
  }
}

}  // namespace
}  // namespace dwrs
