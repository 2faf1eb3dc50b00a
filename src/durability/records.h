// WAL record catalog. One frame payload (wal.h) is one encoded
// WalRecord. Two record families:
//
//   Replay inputs — what recovery feeds back through the real protocol
//   code:
//     kMessage        every arrival at the coordinator-session input,
//                     PRE-dedup (hellos, duplicates and gap arrivals
//                     included: they advance session state even when
//                     nothing reaches the inner coordinator), wrapped
//                     around sim::codec's wire encoding.
//     kStepMark       a stream step quiesced; recovery replays through
//                     the LAST committed mark (the durable step) and
//                     discards the partial step behind it.
//     kCheckpointMark a checkpoint of the given sequence was captured
//                     here (audit of the rotation lifecycle).
//
//   Decision audit — coordinator outcomes recorded so a recovery can
//   CROSS-CHECK that replay regenerated the same history, rather than
//   trust it did:
//     kThresholdBump  the coordinator announced a higher epoch
//                     threshold.
//     kEpochChange    the announced epoch index advanced.
//     kSampleDelta    sample membership changed: `added` entered S,
//                     optionally evicting `evicted_id`.
//
// Fields are written and read with sim/codec's byte helpers (LEB128
// varints, raw IEEE 754 little-endian doubles), the message codec's
// conventions. Golden byte vectors for every type are pinned in
// tests/codec_test.cc — the on-disk format is a compatibility surface.

#ifndef DWRS_DURABILITY_RECORDS_H_
#define DWRS_DURABILITY_RECORDS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "sampling/keyed_item.h"
#include "sim/message.h"

namespace dwrs::durability {

enum class WalRecordType : uint8_t {
  kMessage = 1,
  kThresholdBump = 2,
  kEpochChange = 3,
  kSampleDelta = 4,
  kStepMark = 5,
  kCheckpointMark = 6,
};

const char* WalRecordTypeName(WalRecordType type);

// Flattened tagged union; only the fields of the active type are
// meaningful (the encoder serializes exactly those).
struct WalRecord {
  WalRecordType type = WalRecordType::kMessage;

  // kMessage: sending site + the wire message as received.
  int site = 0;
  sim::Payload msg;

  // kThresholdBump.
  double threshold = 0.0;
  // kEpochChange.
  int64_t epoch = 0;

  // kSampleDelta.
  KeyedItem added;
  bool evicted_valid = false;
  uint64_t evicted_id = 0;

  // kStepMark: the 1-based quiesced stream step.
  // kCheckpointMark: the checkpoint sequence.
  uint64_t step = 0;
};

// Appends the encoding of `record` to *out. The WAL writer frames
// records with it straight into its pending buffer (wal.h).
void AppendWalRecord(std::vector<uint8_t>* out, const WalRecord& record);

// The encoding as a fresh vector (AppendWalRecord into an empty one).
std::vector<uint8_t> EncodeWalRecord(const WalRecord& record);

// nullopt on any malformed input (unknown type, truncation, trailing
// bytes, a field out of range, inner payload decode failure).
std::optional<WalRecord> DecodeWalRecord(const std::vector<uint8_t>& bytes);

}  // namespace dwrs::durability

#endif  // DWRS_DURABILITY_RECORDS_H_
