// Deterministic, seedable pseudo-random number generator.
//
// The generator is xoshiro256++ seeded through SplitMix64, which is fast,
// high quality, and has a tiny state — one per simulated site keeps the
// distributed protocols reproducible regardless of interleaving.

#ifndef DWRS_RANDOM_RNG_H_
#define DWRS_RANDOM_RNG_H_

#include <cstdint>

namespace dwrs {

class Rng {
 public:
  // Seeds the state via SplitMix64 so that any 64-bit seed (including 0)
  // produces a well-mixed state.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  // Next raw 64 random bits.
  uint64_t NextU64();

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  // Uniform double in (0, 1]; never returns 0 (safe for log()).
  double NextDoubleOpenLeft();

  // Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  uint64_t NextBounded(uint64_t bound);

  // Single random bit.
  bool NextBit();

  // Derives an independent generator; used to hand each simulated site its
  // own stream of randomness from one master seed.
  Rng Fork();

  // Raw xoshiro256++ state words, for durable checkpoints: a generator
  // restored from a saved state resumes the exact same stream, which is
  // what makes crash recovery bit-identical (src/durability/).
  void SaveState(uint64_t out[4]) const {
    for (int i = 0; i < 4; ++i) out[i] = state_[i];
  }
  void RestoreState(const uint64_t in[4]) {
    for (int i = 0; i < 4; ++i) state_[i] = in[i];
  }

 private:
  uint64_t state_[4];
};

// SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): advances `*state` by
// kSplitMix64Gamma and returns the mixed new state. The one copy of the
// mix: Rng seeding, ShardSeed, faults::RestartSeed and sim::Network's
// delay jitter all draw through it.
inline constexpr uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ull;
uint64_t SplitMix64(uint64_t* state);

}  // namespace dwrs

#endif  // DWRS_RANDOM_RNG_H_
