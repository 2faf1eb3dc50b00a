#include "random/rng.h"

#include "util/check.h"

namespace dwrs {
namespace {

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += kSplitMix64Gamma);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextDoubleOpenLeft() {
  // (x + 1) / 2^53 over x in [0, 2^53): uniform on (0, 1].
  return static_cast<double>((NextU64() >> 11) + 1) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  DWRS_CHECK_GT(bound, 0u);
  // Lemire's nearly-divisionless method.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

bool Rng::NextBit() { return (NextU64() >> 63) != 0; }

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace dwrs
