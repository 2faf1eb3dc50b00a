// Exact geometric-skip thinning — the batched hot path of every
// threshold-filtering sampler site.
//
// A site must decide per item whether an Exp(1) key variate t_i falls
// below a per-item hazard h_i (for the wswor filter h_i = w_i/u, so the
// item is forwarded with probability p_i = 1 - e^{-h_i}). Deciding
// naively costs one fresh variate per item even though, in the steady
// state, almost every item loses. The filter instead maintains a single
// pending exponential E ~ Exp(1) — the skip budget — and consumes h_i
// from it per item:
//
//   E <  h_i  ->  item i is ACCEPTED, and E is exactly an Exp(1) variate
//                 conditioned on being < h_i (use it as the item's t_i;
//                 a fresh budget is drawn for the next decision);
//   E >= h_i  ->  item i is REJECTED, and by memorylessness E - h_i is
//                 again Exp(1), independent of everything so far.
//
// Over a run of items with equal hazard h this is literally geometric
// skipping: the number of rejected items ahead of the next send is
// floor(E/h) ~ Geometric(p) with p = 1 - e^{-h} — one RNG draw per
// accepted item, O(1) amortized work for everything that cannot send.
// With mixed weights, consuming each item's own h_i is the exact
// per-item rejection correction fused into the skip (a lighter item
// eats less budget, so it is proportionally less likely to exhaust it):
// the decisions are independent Bernoulli(p_i) and the accepted variate
// carries the correct conditional law, so the sampled distribution is
// exactly the paper's.
//
// The walk is partition-invariant: the residual budget carries across
// calls, so feeding items one at a time or in arbitrary spans yields
// identical decisions from identical RNG state — this is what keeps the
// SiteNode::OnItems span path transcript-identical to the per-item
// OnItem path for every batch size. Hazards may change arbitrarily
// between items (epoch thresholds tighten mid-stream) without biasing
// the law: each decision only needs E to be Exp(1) at that instant.

#ifndef DWRS_RANDOM_GEOMETRIC_SKIP_H_
#define DWRS_RANDOM_GEOMETRIC_SKIP_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "random/rng.h"

namespace dwrs {

class GeometricSkipFilter {
 public:
  // Decides the item with acceptance hazard `hazard` (accept probability
  // 1 - e^{-hazard}). hazard <= 0 rejects for free; hazard = +inf always
  // accepts (the pre-first-epoch state where every key qualifies). After
  // an accepting call, value() is the conditioned Exp(1) variate.
  bool Admit(Rng& rng, double hazard) {
    ++state_.decisions;
    if (!(hazard > 0.0)) {  // p = 0 (also absorbs NaN defensively)
      ++state_.skips_taken;
      return false;
    }
    if (!state_.has_pending) {
      state_.pending = Exp1(rng);
      state_.has_pending = true;
    }
    if (state_.pending < hazard) {
      state_.value = state_.pending;
      if (state_.value <= 0.0) state_.value = MinValue(hazard);
      state_.has_pending = false;
      ++state_.accepts;
      return true;
    }
    ++state_.skips_taken;
    state_.pending -= hazard;  // memoryless residual: still Exp(1)
    // A residual of exactly 0 (measure-zero floating-point tie) would
    // otherwise accept the next item with t = 0 and an infinite key.
    if (state_.pending <= 0.0) state_.has_pending = false;
    return false;
  }

  // The Exp(1) variate conditioned below the accepted hazard; valid only
  // after an Admit that returned true, until the next Admit.
  double value() const { return state_.value; }

  // --- instrumentation (Proposition 7 accounting) ----------------------
  // Admit calls; = items that went through the threshold filter.
  uint64_t decisions() const { return state_.decisions; }
  uint64_t accepts() const { return state_.accepts; }
  // Rejections absorbed into the residual budget at zero RNG cost.
  uint64_t skips_taken() const { return state_.skips_taken; }
  // Fresh exponentials drawn; each consumes one 64-bit RNG word, so the
  // amortized random bits per decision is 64 * draws / decisions.
  uint64_t draws() const { return state_.draws; }
  uint64_t bits_consumed() const { return state_.draws * 64; }

  // Durable-checkpoint surface: the filter's whole state — the residual
  // skip budget, the last accepted variate and the counters — is stored
  // only here. It is part of a site's sampling state: restoring it
  // (together with the RNG state) resumes the walk with bit-identical
  // decisions (src/durability/).
  struct State {
    bool has_pending = false;
    double pending = 0.0;
    double value = 0.0;
    uint64_t decisions = 0;
    uint64_t accepts = 0;
    uint64_t skips_taken = 0;
    uint64_t draws = 0;

    friend bool operator==(const State&, const State&) = default;
  };
  const State& SaveState() const { return state_; }
  void RestoreState(const State& s) { state_ = s; }

 private:
  double Exp1(Rng& rng) {
    ++state_.draws;
    return -std::log(rng.NextDoubleOpenLeft());
  }
  // Floor for a degenerate accepted variate (the uniform landed exactly
  // on 1): 2^-53 mirrors the uniform's resolution so keys w/t stay
  // finite, and staying below the accepted hazard keeps the decision and
  // the value in agreement.
  static double MinValue(double hazard) {
    constexpr double kResolutionFloor = 0x1p-53;
    return std::min(kResolutionFloor, 0.5 * hazard);
  }

  State state_;
};

}  // namespace dwrs

#endif  // DWRS_RANDOM_GEOMETRIC_SKIP_H_
