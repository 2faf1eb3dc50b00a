// Wire format for protocol messages, and the byte helpers every encoded
// format in the repo shares. The paper counts messages in machine words
// (Section 2.1); this codec makes the claim concrete by serializing every
// Payload into bytes (LEB128 varints for the integer fields, raw IEEE754
// for keys/weights) so benches can report real byte counts next to the
// word-accounting of MessageStats.
//
// Each format — the payload here, the WAL records (durability/records.h)
// and the checkpoints (durability/checkpoint.h) — is stated once, as a
// field walk: a function template over its I/O side that names every
// field in order,
//
//   template <typename IO, typename Delta>
//   void WalkDelta(IO& io, Delta& d) { io.Varint(d.id); io.F64(d.key); }
//
// run with a const value through a FieldWriter to encode and with a
// mutable one through a FieldReader to decode. A field's width and place
// are therefore the same on both sides by construction. Rules only a
// decoder can break — a range, a canonical form — stay in the walk as
// io.Require(...), which the writer ignores.

#ifndef DWRS_SIM_CODEC_H_
#define DWRS_SIM_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "sim/message.h"

namespace dwrs::sim {

// Appends a LEB128 varint encoding of x.
void PutVarint(std::vector<uint8_t>* out, uint64_t x);
// Appends x zigzag-mapped (small magnitudes stay short), as a varint.
void PutZigzag(std::vector<uint8_t>* out, int64_t x);
// Appends the raw IEEE 754 bits of x, little-endian.
void PutF64(std::vector<uint8_t>* out, double x);
// Fixed-width little-endian integers.
void PutU32Le(std::vector<uint8_t>* out, uint32_t x);
void PutU64Le(std::vector<uint8_t>* out, uint64_t x);
// Appends a varint byte length, then EncodePayload(msg).
void PutSizedPayload(std::vector<uint8_t>* out, const Payload& msg);

// Sequential, bounds-checked reader for everything the Put* helpers
// write. Every getter returns a default value and latches failure on
// truncation or on a field out of its type's range, so decoders read
// field after field and check ok() (or done()) once at the end. After
// the first failure every getter returns its default without reading,
// so no container is ever sized from bytes past a malformed field.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  // ok() with every byte consumed: trailing bytes are malformed input.
  bool done() const { return ok_ && pos_ == size_; }
  size_t pos() const { return pos_; }

  // Latches failure: a decoder's own check on a field failed.
  void Fail() { ok_ = false; }

  // A varint that must fit the integer type T. Fails on truncation and
  // on an encoding longer than 10 bytes.
  template <typename T = uint64_t>
  T Varint() {
    const uint64_t x = RawVarint();
    if (x > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
      return Failed<T>();
    }
    return static_cast<T>(x);
  }
  // A zigzag varint that must fit the signed type T.
  template <typename T = int64_t>
  T Zigzag() {
    const uint64_t u = RawVarint();
    const int64_t x = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    if (x < std::numeric_limits<T>::min() ||
        x > std::numeric_limits<T>::max()) {
      return Failed<T>();
    }
    return static_cast<T>(x);
  }
  double F64();
  uint32_t U32Le();
  uint64_t U64Le();
  uint8_t Byte();
  // A byte that must be 0 or 1.
  bool Bool();
  // The next n bytes, in place. Check ok() before using the pointer.
  const uint8_t* Bytes(size_t n);
  // An element count, bounded so a corrupt count cannot drive a huge
  // allocation (decoders are also fed unchecked bytes by the fuzz tests).
  size_t Count();
  // The inverse of PutSizedPayload.
  Payload SizedPayload();

 private:
  uint64_t RawVarint();
  uint64_t FixedLe(size_t n);
  template <typename T>
  T Failed() {
    ok_ = false;
    return T{};
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// The encoding side of a field walk: appends each field to *out.
class FieldWriter {
 public:
  explicit FieldWriter(std::vector<uint8_t>* out) : out_(out) {}

  template <typename T>
  void Varint(T x) { PutVarint(out_, static_cast<uint64_t>(x)); }
  template <typename T>
  void Zigzag(T x) { PutZigzag(out_, static_cast<int64_t>(x)); }
  void F64(double x) { PutF64(out_, x); }
  void U64Le(uint64_t x) { PutU64Le(out_, x); }
  // A uint8_t, or an enum whose values fit one.
  template <typename T>
  void Byte(T x) { out_->push_back(static_cast<uint8_t>(x)); }
  void Bool(bool x) { out_->push_back(x ? 1 : 0); }
  void SizedPayload(const Payload& msg) { PutSizedPayload(out_, msg); }
  // The element count, then each element through `walk`.
  template <typename Vec, typename Walk>
  void Seq(const Vec& elements, const Walk& walk) {
    PutVarint(out_, elements.size());
    for (const auto& e : elements) walk(e);
  }
  void Require(bool) {}

 private:
  std::vector<uint8_t>* out_;
};

// The decoding side: reads each field through `r`, whose getters bound
// a value by its member's type, bound a count by Count() and latch the
// first failure.
class FieldReader {
 public:
  explicit FieldReader(ByteReader& r) : r_(r) {}

  template <typename T>
  void Varint(T& x) { x = r_.Varint<T>(); }
  template <typename T>
  void Zigzag(T& x) { x = r_.Zigzag<T>(); }
  void F64(double& x) { x = r_.F64(); }
  void U64Le(uint64_t& x) { x = r_.U64Le(); }
  template <typename T>
  void Byte(T& x) { x = static_cast<T>(r_.Byte()); }
  void Bool(bool& x) { x = r_.Bool(); }
  void SizedPayload(Payload& msg) { msg = r_.SizedPayload(); }
  template <typename Vec, typename Walk>
  void Seq(Vec& elements, const Walk& walk) {
    elements.resize(r_.Count());
    for (auto& e : elements) walk(e);
  }
  void Require(bool ok) {
    if (!ok) r_.Fail();
  }

 private:
  ByteReader& r_;
};

// Serializes a payload:
//   varint type | varint a | flags byte | [varint seq] [varint epoch]
//   | [8B x] [8B y]
// where the flags byte records which of the optional fields are nonzero
// (most protocol messages carry at most one real value, and the seq/epoch
// reliability header only exists under the fault model). Bits:
//   1 = x present, 2 = y present, 4 = seq present, 8 = epoch present.
std::vector<uint8_t> EncodePayload(const Payload& msg);

// Inverse of EncodePayload; nullopt on malformed input, and on any input
// EncodePayload would not have written: the flags must be exactly those
// the decoded fields re-derive (no unknown bit, no flagged field that
// decodes to 0). The `words` accounting field is reconstructed as
// ceil(bytes / 8).
std::optional<Payload> DecodePayload(const std::vector<uint8_t>& bytes);

// Convenience: encoded size in bytes.
size_t EncodedSize(const Payload& msg);

}  // namespace dwrs::sim

#endif  // DWRS_SIM_CODEC_H_
