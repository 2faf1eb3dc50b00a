// Small numeric helpers shared across modules.

#ifndef DWRS_UTIL_MATH_UTIL_H_
#define DWRS_UTIL_MATH_UTIL_H_

#include <cmath>
#include <cstdint>

namespace dwrs {

// Returns floor(log(x) / log(base)) clamped to >= 0; the "level" of a
// weight in the paper's Definition 4 with level base `base`. For bases
// that are exact powers of two (the common case: the paper's epoch/level
// base r = max{2, k/s} is 2 whenever k <= 2s) the result comes straight
// from the IEEE exponent field — exact at every level boundary, no
// transcendental; other bases fall back to the log ratio with an exact
// PowInt fix-up.
int FloorLogBase(double x, double base);

// When base = 2^m for integer m >= 1, returns m; otherwise 0. The
// discriminator behind FloorLogBase's exponent-extraction fast path,
// exposed so per-item callers can hoist it (LevelIndexer).
int PowerOfTwoExponent(double base);

// FloorLogBase with the base discriminated once at construction — the
// per-item form used on sampler hot paths (WsworSite::OnItems computes a
// level per item when withholding is enabled).
class LevelIndexer {
 public:
  explicit LevelIndexer(double base);

  int operator()(double x) const {
    if (x < base_) return 0;
    if (base_exp_ != 0) return std::ilogb(x) / base_exp_;
    return FloorLogBase(x, base_);
  }

  double base() const { return base_; }

 private:
  double base_;
  int base_exp_;  // m when base = 2^m, else 0
};

// Returns base^j computed by repeated multiplication for small integer j
// (exact for the powers that fit a double without rounding surprises).
double PowInt(double base, int j);

// log2 of an unsigned integer (floor); 0 maps to 0.
int FloorLog2U64(uint64_t x);

// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);

// Returns true when |a - b| <= tol * max(1, |a|, |b|).
bool AlmostEqual(double a, double b, double tol);

// The paper's epoch/level base r = max{2, k/s}.
double EpochBase(int num_sites, int sample_size);

// Theoretical expected message bound of Theorem 3 (up to constants):
// k * log(W/s) / log(1 + k/s).
double Theorem3MessageBound(int num_sites, int sample_size, double total_weight);

// Naive baseline expectation (Section 1.2): ~ k*s*log(W).
double NaiveMessageBound(int num_sites, int sample_size, double total_weight);

}  // namespace dwrs

#endif  // DWRS_UTIL_MATH_UTIL_H_
