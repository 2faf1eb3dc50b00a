#include "durability/records.h"

#include "sim/codec.h"

namespace dwrs::durability {

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kMessage: return "message";
    case WalRecordType::kThresholdBump: return "threshold_bump";
    case WalRecordType::kEpochChange: return "epoch_change";
    case WalRecordType::kSampleDelta: return "sample_delta";
    case WalRecordType::kStepMark: return "step_mark";
    case WalRecordType::kCheckpointMark: return "checkpoint_mark";
  }
  return "unknown";
}

namespace {

// The record format: the type byte, then the active type's fields.
template <typename IO, typename Record>
void WalkWalRecord(IO& io, Record& record) {
  io.Byte(record.type);
  switch (record.type) {
    case WalRecordType::kMessage:
      io.Varint(record.site);
      io.SizedPayload(record.msg);
      break;
    case WalRecordType::kThresholdBump:
      io.F64(record.threshold);
      break;
    case WalRecordType::kEpochChange:
      io.Zigzag(record.epoch);
      break;
    case WalRecordType::kSampleDelta:
      WalkKeyedItem(io, record.added);
      io.Bool(record.evicted_valid);
      if (record.evicted_valid) io.Varint(record.evicted_id);
      break;
    case WalRecordType::kStepMark:
    case WalRecordType::kCheckpointMark:
      io.Varint(record.step);
      break;
    default:
      io.Require(false);  // an unknown type, or no bytes at all
  }
}

}  // namespace

void AppendWalRecord(std::vector<uint8_t>* out, const WalRecord& record) {
  sim::FieldWriter io(out);
  WalkWalRecord(io, record);
}

std::vector<uint8_t> EncodeWalRecord(const WalRecord& record) {
  std::vector<uint8_t> out;
  AppendWalRecord(&out, record);
  return out;
}

std::optional<WalRecord> DecodeWalRecord(const std::vector<uint8_t>& bytes) {
  sim::ByteReader r(bytes);
  sim::FieldReader io(r);
  WalRecord record;
  WalkWalRecord(io, record);
  if (!r.done()) return std::nullopt;  // malformed, or trailing bytes
  return record;
}

}  // namespace dwrs::durability
