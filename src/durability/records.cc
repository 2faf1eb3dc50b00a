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

std::vector<uint8_t> EncodeWalRecord(const WalRecord& record) {
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kMessage:
      sim::PutVarint(&out, static_cast<uint64_t>(record.site));
      sim::PutSizedPayload(&out, record.msg);
      break;
    case WalRecordType::kThresholdBump:
      sim::PutF64(&out, record.threshold);
      break;
    case WalRecordType::kEpochChange:
      sim::PutZigzag(&out, record.epoch);
      break;
    case WalRecordType::kSampleDelta:
      sim::PutVarint(&out, record.added.item.id);
      sim::PutF64(&out, record.added.item.weight);
      sim::PutF64(&out, record.added.key);
      out.push_back(record.evicted_valid ? 1 : 0);
      if (record.evicted_valid) sim::PutVarint(&out, record.evicted_id);
      break;
    case WalRecordType::kStepMark:
    case WalRecordType::kCheckpointMark:
      sim::PutVarint(&out, record.step);
      break;
  }
  return out;
}

std::optional<WalRecord> DecodeWalRecord(const std::vector<uint8_t>& bytes) {
  sim::ByteReader r(bytes);
  WalRecord record;
  record.type = static_cast<WalRecordType>(r.Byte());
  switch (record.type) {
    case WalRecordType::kMessage:
      record.site = r.Varint<int>();
      record.msg = r.SizedPayload();
      break;
    case WalRecordType::kThresholdBump:
      record.threshold = r.F64();
      break;
    case WalRecordType::kEpochChange:
      record.epoch = r.Zigzag();
      break;
    case WalRecordType::kSampleDelta:
      record.added.item.id = r.Varint();
      record.added.item.weight = r.F64();
      record.added.key = r.F64();
      record.evicted_valid = r.Bool();
      if (record.evicted_valid) record.evicted_id = r.Varint();
      break;
    case WalRecordType::kStepMark:
    case WalRecordType::kCheckpointMark:
      record.step = r.Varint();
      break;
    default:
      return std::nullopt;  // unknown type, or no bytes at all
  }
  if (!r.done()) return std::nullopt;  // malformed, or trailing bytes
  return record;
}

}  // namespace dwrs::durability
