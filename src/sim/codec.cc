#include "sim/codec.h"

#include <cstring>

namespace dwrs::sim {
namespace {

constexpr uint8_t kHasX = 1;
constexpr uint8_t kHasY = 2;
constexpr uint8_t kHasSeq = 4;
constexpr uint8_t kHasEpoch = 8;

// Element counts past this are corruption, not data.
constexpr uint64_t kMaxCount = uint64_t{1} << 26;

void PutFixedLe(std::vector<uint8_t>* out, uint64_t x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out->push_back(static_cast<uint8_t>(x >> (8 * i)));
  }
}

// The bits of the flags byte `msg` encodes with: its nonzero optional
// fields.
uint8_t PresentFields(const Payload& msg) {
  uint8_t flags = 0;
  if (msg.x != 0.0) flags |= kHasX;
  if (msg.y != 0.0) flags |= kHasY;
  if (msg.seq != 0) flags |= kHasSeq;
  if (msg.epoch != 0) flags |= kHasEpoch;
  return flags;
}

// The payload format (codec.h, EncodePayload).
template <typename IO, typename Msg>
void WalkPayload(IO& io, Msg& msg) {
  io.Varint(msg.type);
  io.Varint(msg.a);
  uint8_t flags = PresentFields(msg);
  io.Byte(flags);
  if (flags & kHasSeq) io.Varint(msg.seq);
  if (flags & kHasEpoch) io.Varint(msg.epoch);
  if (flags & kHasX) io.F64(msg.x);
  if (flags & kHasY) io.F64(msg.y);
  // Canonical: the flags read are the ones the decoded fields re-derive.
  io.Require(flags == PresentFields(msg));
}

// Decodes the payload spanning exactly [data, data + size).
std::optional<Payload> DecodeSpan(const uint8_t* data, size_t size) {
  ByteReader r(data, size);
  FieldReader io(r);
  Payload msg;
  WalkPayload(io, msg);
  if (!r.done()) return std::nullopt;  // malformed, or trailing garbage
  msg.words = static_cast<uint32_t>((size + 7) / 8);
  return msg;
}

}  // namespace

void PutVarint(std::vector<uint8_t>* out, uint64_t x) {
  while (x >= 0x80) {
    out->push_back(static_cast<uint8_t>(x) | 0x80);
    x >>= 7;
  }
  out->push_back(static_cast<uint8_t>(x));
}

void PutZigzag(std::vector<uint8_t>* out, int64_t x) {
  const uint64_t u = static_cast<uint64_t>(x);
  PutVarint(out, (u << 1) ^ static_cast<uint64_t>(x >> 63));
}

void PutF64(std::vector<uint8_t>* out, double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  PutFixedLe(out, bits, 8);
}

void PutU32Le(std::vector<uint8_t>* out, uint32_t x) { PutFixedLe(out, x, 4); }

void PutU64Le(std::vector<uint8_t>* out, uint64_t x) { PutFixedLe(out, x, 8); }

void PutSizedPayload(std::vector<uint8_t>* out, const Payload& msg) {
  // A payload encodes to at most 42 bytes, so its length varint is one
  // byte, filled in once the payload behind it is written.
  const size_t at = out->size();
  out->push_back(0);
  FieldWriter io(out);
  WalkPayload(io, msg);
  (*out)[at] = static_cast<uint8_t>(out->size() - at - 1);
}

uint64_t ByteReader::RawVarint() {
  uint64_t x = 0;
  for (int shift = 0; ok_ && shift < 70 && pos_ < size_; shift += 7) {
    const uint8_t byte = data_[pos_++];
    x |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return x;
  }
  return Failed<uint64_t>();  // truncated, or longer than 10 bytes
}

const uint8_t* ByteReader::Bytes(size_t n) {
  if (!ok_ || n > size_ - pos_) return Failed<const uint8_t*>();
  const uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

uint64_t ByteReader::FixedLe(size_t n) {
  const uint8_t* p = Bytes(n);
  if (!ok_) return 0;
  uint64_t x = 0;
  for (size_t i = 0; i < n; ++i) x |= static_cast<uint64_t>(p[i]) << (8 * i);
  return x;
}

double ByteReader::F64() {
  const uint64_t bits = FixedLe(8);
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

uint32_t ByteReader::U32Le() { return static_cast<uint32_t>(FixedLe(4)); }

uint64_t ByteReader::U64Le() { return FixedLe(8); }

uint8_t ByteReader::Byte() { return static_cast<uint8_t>(FixedLe(1)); }

bool ByteReader::Bool() {
  const uint8_t b = Byte();
  if (b > 1) return Failed<bool>();
  return b == 1;
}

size_t ByteReader::Count() {
  const uint64_t n = Varint();
  if (n > kMaxCount) return Failed<size_t>();
  return static_cast<size_t>(n);
}

Payload ByteReader::SizedPayload() {
  const size_t len = Varint<size_t>();
  const uint8_t* wire = Bytes(len);
  if (!ok_) return Payload{};
  const std::optional<Payload> msg = DecodeSpan(wire, len);
  if (!msg) return Failed<Payload>();
  return *msg;
}

std::vector<uint8_t> EncodePayload(const Payload& msg) {
  std::vector<uint8_t> out;
  out.reserve(24);
  FieldWriter io(&out);
  WalkPayload(io, msg);
  return out;
}

std::optional<Payload> DecodePayload(const std::vector<uint8_t>& bytes) {
  return DecodeSpan(bytes.data(), bytes.size());
}

size_t EncodedSize(const Payload& msg) { return EncodePayload(msg).size(); }

}  // namespace dwrs::sim
