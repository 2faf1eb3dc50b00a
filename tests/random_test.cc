#include <algorithm>
#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "faults/harness.h"
#include "random/distributions.h"
#include "random/exponential_order_stats.h"
#include "random/geometric_skip.h"
#include "random/lazy_exponential.h"
#include "random/rng.h"
#include "sim/network.h"
#include "stats/chi_square.h"
#include "stats/ks_test.h"
#include "stats/summary.h"
#include "stream/sharding.h"

namespace dwrs {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.NextU64() == b.NextU64());
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(7);
  Rng b = a.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.NextU64() == b.NextU64());
  EXPECT_LT(equal, 2);
}

// The seed mixes built on SplitMix64, pinned to their recorded values:
// the sim and engine sides of every replay test share them, so a changed
// mix would otherwise pass unnoticed.
TEST(SplitMix64Test, DerivedSeedsAndJitterArePinned) {
  EXPECT_EQ(ShardSeed(0, 0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(ShardSeed(1, 1), 0xBEEB8DA1658EEC67ull);
  EXPECT_EQ(ShardSeed(42, 3), 0x581CE1FF0E4AE394ull);
  EXPECT_EQ(ShardSeed(0xDEADBEEFCAFEF00Dull, 1), 0xA7CE246440F74527ull);
  EXPECT_EQ(faults::RestartSeed(7, 0), 7u);
  EXPECT_EQ(faults::RestartSeed(0, 1), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(faults::RestartSeed(7, 2), 0x044C3CD7F43C661Cull);
  EXPECT_EQ(faults::RestartSeed(7, 9), 0x225EC07A99506761ull);
  EXPECT_EQ(faults::RestartSeed(0xDEADBEEFCAFEF00Dull, 9),
            0x5047E69E4524A085ull);

  // The first draw on each of the 16 channels of a k = 8 network is the
  // jitter delay itself (no FIFO floor yet).
  sim::Network network(/*num_sites=*/8, /*delivery_delay=*/1000,
                       /*jitter_seed=*/99);
  const uint64_t expected[16] = {800, 556, 693, 355, 794, 253, 474, 622,
                                 998, 552, 654, 161, 374, 140, 655, 656};
  for (size_t channel = 0; channel < 16; ++channel) {
    EXPECT_EQ(network.NextDueStep(channel), expected[channel]) << channel;
  }
}

TEST(RngTest, NextDoubleRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleOpenLeftNeverZero) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDoubleOpenLeft();
    EXPECT_GT(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(RngTest, NextDoubleUniformKs) {
  Rng rng(99);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.NextDouble());
  const KsResult ks = KsTest(samples, UniformCdf);
  EXPECT_GT(ks.p_value, 1e-4) << "D=" << ks.statistic;
}

TEST(RngTest, NextBoundedUniform) {
  Rng rng(17);
  const uint64_t bound = 7;
  std::vector<uint64_t> counts(bound, 0);
  const uint64_t trials = 70000;
  for (uint64_t i = 0; i < trials; ++i) ++counts[rng.NextBounded(bound)];
  std::vector<double> probs(bound, 1.0 / static_cast<double>(bound));
  const auto result = ChiSquareAgainstProbabilities(counts, probs, trials);
  EXPECT_GT(result.p_value, 1e-4);
}

TEST(RngTest, NextBoundedOne) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(ExponentialTest, MeanAndKs) {
  Rng rng(21);
  std::vector<double> samples;
  Summary summary;
  for (int i = 0; i < 30000; ++i) {
    const double x = Exponential(rng);
    EXPECT_GT(x, 0.0);
    samples.push_back(x);
    summary.Add(x);
  }
  EXPECT_NEAR(summary.mean(), 1.0, 0.03);
  EXPECT_GT(KsTest(samples, ExponentialCdf).p_value, 1e-4);
}

TEST(ExponentialTest, RateScales) {
  Rng rng(22);
  Summary summary;
  for (int i = 0; i < 20000; ++i) summary.Add(ExponentialRate(rng, 4.0));
  EXPECT_NEAR(summary.mean(), 0.25, 0.01);
}

TEST(TruncatedExponentialTest, StaysInsideBound) {
  Rng rng(23);
  for (double bound : {0.01, 0.5, 3.0, 40.0}) {
    for (int i = 0; i < 2000; ++i) {
      const double x = TruncatedExponential(rng, bound);
      EXPECT_GT(x, 0.0);
      EXPECT_LT(x, bound);
    }
  }
}

TEST(TruncatedExponentialTest, MatchesConditionalLaw) {
  Rng rng(24);
  const double bound = 1.5;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(TruncatedExponential(rng, bound));
  }
  const double denom = -std::expm1(-bound);
  const KsResult ks = KsTest(samples, [&](double x) {
    if (x <= 0.0) return 0.0;
    if (x >= bound) return 1.0;
    return -std::expm1(-x) / denom;
  });
  EXPECT_GT(ks.p_value, 1e-4);
}

TEST(GeometricTrialsTest, MeanMatches) {
  Rng rng(25);
  for (double p : {0.5, 0.1, 0.01}) {
    Summary summary;
    for (int i = 0; i < 30000; ++i) {
      summary.Add(static_cast<double>(GeometricTrials(rng, p)));
    }
    EXPECT_NEAR(summary.mean(), 1.0 / p, 4.0 * summary.stddev() / 170.0)
        << "p=" << p;
  }
}

TEST(GeometricTrialsTest, CertainSuccess) {
  Rng rng(26);
  EXPECT_EQ(GeometricTrials(rng, 1.0), 1u);
}

TEST(NormalTest, MomentsAndSymmetry) {
  Rng rng(27);
  Summary summary;
  for (int i = 0; i < 40000; ++i) summary.Add(Normal(rng));
  EXPECT_NEAR(summary.mean(), 0.0, 0.02);
  EXPECT_NEAR(summary.variance(), 1.0, 0.05);
}

TEST(GammaTest, MeanEqualsShape) {
  Rng rng(28);
  for (double shape : {0.5, 1.0, 2.5, 10.0}) {
    Summary summary;
    for (int i = 0; i < 20000; ++i) summary.Add(Gamma(rng, shape));
    EXPECT_NEAR(summary.mean(), shape, 0.05 * std::max(1.0, shape))
        << "shape=" << shape;
  }
}

TEST(BetaTest, RangeAndMean) {
  Rng rng(29);
  Summary summary;
  for (int i = 0; i < 20000; ++i) {
    const double x = Beta(rng, 3.0, 5.0);
    EXPECT_GT(x, 0.0);
    EXPECT_LT(x, 1.0);
    summary.Add(x);
  }
  EXPECT_NEAR(summary.mean(), 3.0 / 8.0, 0.01);
}

struct BinomialCase {
  uint64_t n;
  double p;
};

class BinomialTest : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialTest, MeanAndVariance) {
  const auto [n, p] = GetParam();
  Rng rng(1000 + n);
  Summary summary;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const uint64_t x = Binomial(rng, n, p);
    EXPECT_LE(x, n);
    summary.Add(static_cast<double>(x));
  }
  const double mean = static_cast<double>(n) * p;
  const double var = mean * (1.0 - p);
  EXPECT_NEAR(summary.mean(), mean, 5.0 * std::sqrt(var / trials) + 1e-9)
      << "n=" << n << " p=" << p;
  if (var > 0.1) {
    EXPECT_NEAR(summary.variance(), var, 0.12 * var) << "n=" << n << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegimes, BinomialTest,
    ::testing::Values(BinomialCase{1, 0.3},        // trivial
                      BinomialCase{20, 0.2},       // skip path
                      BinomialCase{50, 0.5},       // inversion path
                      BinomialCase{1000, 0.1},     // inversion path
                      BinomialCase{100000, 0.001}, // inversion (np=100)
                      BinomialCase{100000, 0.3},   // beta-split path
                      BinomialCase{1000000, 0.9},  // complement + split
                      BinomialCase{64, 0.0},       // p=0
                      BinomialCase{64, 1.0}));     // p=1

TEST(BinomialChiSquareTest, SmallCaseExactPmf) {
  Rng rng(31);
  const uint64_t n = 6;
  const double p = 0.35;
  std::vector<uint64_t> counts(n + 1, 0);
  const uint64_t trials = 60000;
  for (uint64_t i = 0; i < trials; ++i) ++counts[Binomial(rng, n, p)];
  std::vector<double> probs(n + 1);
  for (uint64_t k = 0; k <= n; ++k) {
    double c = 1.0;
    for (uint64_t j = 0; j < k; ++j) {
      c *= static_cast<double>(n - j) / static_cast<double>(j + 1);
    }
    probs[k] = c * std::pow(p, static_cast<double>(k)) *
               std::pow(1.0 - p, static_cast<double>(n - k));
  }
  const auto result = ChiSquareAgainstProbabilities(counts, probs, trials);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(ZipfTest, DistributionSmallN) {
  const uint64_t n = 8;
  const double alpha = 1.3;
  ZipfSampler zipf(n, alpha);
  Rng rng(33);
  std::vector<uint64_t> counts(n, 0);
  const uint64_t trials = 80000;
  for (uint64_t i = 0; i < trials; ++i) ++counts[zipf.Next(rng) - 1];
  std::vector<double> probs(n);
  double z = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    z += std::pow(static_cast<double>(i), -alpha);
  }
  for (uint64_t i = 1; i <= n; ++i) {
    probs[i - 1] = std::pow(static_cast<double>(i), -alpha) / z;
  }
  const auto result = ChiSquareAgainstProbabilities(counts, probs, trials);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(ZipfTest, AlphaOneSpecialCase) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(34);
  Summary ranks;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t r = zipf.Next(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 100u);
    ranks.Add(static_cast<double>(r));
  }
  // Mean of Zipf(1) over [1,100] is 100/H_100 ~ 19.28.
  EXPECT_NEAR(ranks.mean(), 100.0 / 5.187377, 1.0);
}

TEST(ZipfTest, SingleRank) {
  ZipfSampler zipf(1, 2.0);
  Rng rng(35);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Next(rng), 1u);
}

TEST(MinUniformTest, ProbabilityFormula) {
  EXPECT_NEAR(MinUniformBelowProb(1.0, 0.25), 0.25, 1e-12);
  EXPECT_NEAR(MinUniformBelowProb(2.0, 0.5), 0.75, 1e-12);
  EXPECT_NEAR(MinUniformBelowProb(10.0, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(MinUniformBelowProb(3.0, 0.0), 0.0, 1e-12);
  // Stable for tiny tau * large w.
  EXPECT_NEAR(MinUniformBelowProb(1e6, 1e-9), -std::expm1(1e6 * std::log1p(-1e-9)),
              1e-15);
}

TEST(MinUniformTest, TruncatedSamplesMatchLaw) {
  Rng rng(36);
  const double w = 5.0;
  const double tau = 0.3;
  const double alpha = MinUniformBelowProb(w, tau);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double x = TruncatedMinUniform(rng, w, tau);
    EXPECT_GT(x, 0.0);
    EXPECT_LT(x, tau);
    samples.push_back(x);
  }
  const KsResult ks = KsTest(samples, [&](double x) {
    if (x <= 0.0) return 0.0;
    if (x >= tau) return 1.0;
    return -std::expm1(w * std::log1p(-x)) / alpha;
  });
  EXPECT_GT(ks.p_value, 1e-4);
}

TEST(LazyExponentialTest, DecisionProbability) {
  Rng rng(37);
  for (double bound : {0.1, 0.7, 2.0}) {
    uint64_t below = 0;
    const uint64_t trials = 40000;
    for (uint64_t i = 0; i < trials; ++i) {
      below += DecideExponentialBelow(rng, bound).below_bound;
    }
    const double p = -std::expm1(-bound);
    EXPECT_GT(BinomialTwoSidedPValue(below, trials, p), 1e-4)
        << "bound=" << bound;
  }
}

TEST(LazyExponentialTest, ValueIsExponentialOverall) {
  Rng rng(38);
  std::vector<double> samples;
  for (int i = 0; i < 30000; ++i) {
    samples.push_back(DecideExponentialBelow(rng, 0.8).value);
  }
  EXPECT_GT(KsTest(samples, ExponentialCdf).p_value, 1e-4);
}

TEST(LazyExponentialTest, DecisionAgreesWithValue) {
  Rng rng(39);
  for (int i = 0; i < 20000; ++i) {
    const double bound = 0.01 + 3.0 * rng.NextDouble();
    const LazyExpDecision d = DecideExponentialBelow(rng, bound);
    EXPECT_EQ(d.below_bound, d.value < bound);
    EXPECT_GT(d.value, 0.0);
  }
}

TEST(LazyExponentialTest, ExpectedBitsIsConstant) {
  Rng rng(40);
  Summary bits;
  for (int i = 0; i < 20000; ++i) {
    bits.Add(DecideExponentialBelow(rng, 1.0).bits_consumed);
  }
  // Interval halves per bit: expected bits to separate from a fixed
  // threshold is exactly 2.
  EXPECT_LT(bits.mean(), 3.0);
  EXPECT_GT(bits.mean(), 1.0);
}

TEST(LazyExponentialTest, DegenerateBounds) {
  Rng rng(41);
  const auto zero = DecideExponentialBelow(rng, 0.0);
  EXPECT_FALSE(zero.below_bound);
  EXPECT_EQ(zero.bits_consumed, 0);
  const auto inf = DecideExponentialBelow(
      rng, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(inf.below_bound);
}

TEST(OrderStatsTest, SmallestExponentialsAscending) {
  Rng rng(43);
  const auto xs = SmallestExponentials(rng, 100, 10);
  ASSERT_EQ(xs.size(), 10u);
  for (size_t i = 1; i < xs.size(); ++i) EXPECT_GT(xs[i], xs[i - 1]);
}

TEST(OrderStatsTest, MinimumOfNIsExponentialRateN) {
  Rng rng(44);
  const uint64_t n = 50;
  std::vector<double> mins;
  for (int i = 0; i < 20000; ++i) {
    mins.push_back(SmallestExponentials(rng, n, 1)[0] * n);
  }
  EXPECT_GT(KsTest(mins, ExponentialCdf).p_value, 1e-4);
}

TEST(OrderStatsTest, TopDuplicateKeysDescending) {
  Rng rng(45);
  const auto keys = TopDuplicateKeys(rng, 7.0, 1000, 8);
  ASSERT_EQ(keys.size(), 8u);
  for (size_t i = 1; i < keys.size(); ++i) EXPECT_LT(keys[i], keys[i - 1]);
  for (double k : keys) EXPECT_GT(k, 0.0);
}

TEST(ExactSworTest, UniformWeightsGiveUniformInclusion) {
  const std::vector<double> w(6, 2.0);
  const auto probs = ExactSworInclusionProbabilities(w, 2);
  for (double p : probs) EXPECT_NEAR(p, 2.0 / 6.0, 1e-12);
}

TEST(ExactSworTest, InclusionSumsToSampleSize) {
  const std::vector<double> w = {1.0, 5.0, 2.0, 8.0, 1.0};
  for (int s = 1; s <= 5; ++s) {
    const auto probs = ExactSworInclusionProbabilities(w, s);
    double sum = 0.0;
    for (double p : probs) sum += p;
    EXPECT_NEAR(sum, s, 1e-9) << "s=" << s;
  }
}

TEST(ExactSworTest, HandComputedTwoOfThree) {
  // Weights 1, 2, 3; s = 1: inclusion = w/6.
  const std::vector<double> w = {1.0, 2.0, 3.0};
  const auto p1 = ExactSworInclusionProbabilities(w, 1);
  EXPECT_NEAR(p1[0], 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(p1[1], 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(p1[2], 3.0 / 6.0, 1e-12);
  // s = 2: P(1 excluded) = P(2 then 3) + P(3 then 2)
  //      = (2/6)(3/4) + (3/6)(2/3) = 1/4 + 1/3 = 7/12.
  const auto p2 = ExactSworInclusionProbabilities(w, 2);
  EXPECT_NEAR(p2[0], 1.0 - 7.0 / 12.0, 1e-12);
}

TEST(ExactSworTest, SampleLargerThanUniverse) {
  const std::vector<double> w = {1.0, 2.0};
  const auto probs = ExactSworInclusionProbabilities(w, 5);
  EXPECT_NEAR(probs[0], 1.0, 1e-12);
  EXPECT_NEAR(probs[1], 1.0, 1e-12);
}

TEST(ExactSworTest, SetDistributionSumsToOne) {
  const std::vector<double> w = {1.0, 4.0, 2.0, 2.0, 6.0};
  const auto sets = ExactSworSetDistribution(w, 3);
  EXPECT_EQ(sets.size(), 10u);  // C(5,3)
  double sum = 0.0;
  for (const auto& [mask, p] : sets) {
    EXPECT_EQ(__builtin_popcount(mask), 3);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(WeightedDrawTest, Normalizes) {
  const auto p = WeightedDrawProbabilities({1.0, 3.0});
  EXPECT_NEAR(p[0], 0.25, 1e-12);
  EXPECT_NEAR(p[1], 0.75, 1e-12);
}

// ---------------------------------------------------------------------------
// Geometric-skip thinning (the batched threshold-filter hot path).

TEST(GeometricSkipTest, AcceptanceProbabilityMatchesHazard) {
  Rng rng(61);
  for (double hazard : {0.05, 0.7, 2.0}) {
    GeometricSkipFilter filter;
    uint64_t accepted = 0;
    const uint64_t trials = 40000;
    for (uint64_t i = 0; i < trials; ++i) {
      accepted += filter.Admit(rng, hazard);
    }
    const double p = -std::expm1(-hazard);
    EXPECT_GT(BinomialTwoSidedPValue(accepted, trials, p), 1e-4)
        << "hazard=" << hazard;
  }
}

TEST(GeometricSkipTest, AcceptedValueHasTruncatedExponentialLaw) {
  Rng rng(62);
  GeometricSkipFilter filter;
  const double hazard = 0.8;
  const double scale = -std::expm1(-hazard);
  std::vector<double> samples;
  while (samples.size() < 20000) {
    if (filter.Admit(rng, hazard)) {
      EXPECT_GT(filter.value(), 0.0);
      EXPECT_LT(filter.value(), hazard);
      samples.push_back(filter.value());
    }
  }
  const KsResult ks = KsTest(samples, [&](double x) {
    if (x <= 0.0) return 0.0;
    if (x >= hazard) return 1.0;
    return -std::expm1(-x) / scale;
  });
  EXPECT_GT(ks.p_value, 1e-4);
}

TEST(GeometricSkipTest, MixedHazardsStayPerItemExact) {
  // A repeating hazard pattern: each position's acceptance frequency must
  // match its own probability even though all positions share one filter
  // (memorylessness of the residual budget = exact rejection correction).
  const std::vector<double> hazards = {0.02, 1.5, 0.3};
  std::vector<uint64_t> accepted(hazards.size(), 0);
  Rng rng(63);
  GeometricSkipFilter filter;
  const uint64_t rounds = 30000;
  for (uint64_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < hazards.size(); ++i) {
      accepted[i] += filter.Admit(rng, hazards[i]);
    }
  }
  for (size_t i = 0; i < hazards.size(); ++i) {
    EXPECT_GT(BinomialTwoSidedPValue(accepted[i], rounds,
                                     -std::expm1(-hazards[i])),
              1e-4)
        << "position " << i;
  }
}

TEST(GeometricSkipTest, SkipsConsumeNoRandomness) {
  Rng rng(64);
  GeometricSkipFilter filter;
  const uint64_t decisions = 100000;
  for (uint64_t i = 0; i < decisions; ++i) {
    filter.Admit(rng, 1e-4);  // p ~ 1e-4: skips dominate
  }
  EXPECT_EQ(filter.decisions(), decisions);
  EXPECT_EQ(filter.accepts() + filter.skips_taken(), decisions);
  // One draw per accept plus at most one pending draw outstanding.
  EXPECT_LE(filter.draws(), filter.accepts() + 1);
  EXPECT_EQ(filter.bits_consumed(), filter.draws() * 64);
  EXPECT_GT(filter.skips_taken(), decisions * 99 / 100);
}

TEST(GeometricSkipTest, DegenerateHazards) {
  Rng rng(65);
  GeometricSkipFilter filter;
  EXPECT_FALSE(filter.Admit(rng, 0.0));
  EXPECT_FALSE(filter.Admit(rng, -1.0));
  EXPECT_EQ(filter.draws(), 0u);  // free rejections
  EXPECT_TRUE(
      filter.Admit(rng, std::numeric_limits<double>::infinity()));
  EXPECT_GT(filter.value(), 0.0);
}

TEST(GeometricSkipTest, ConstantHazardGapsAreGeometric) {
  // With equal hazards the distance between accepts is Geometric(p):
  // check the mean matches 1/p (the literal "skip length" of the name).
  Rng rng(66);
  GeometricSkipFilter filter;
  const double hazard = 0.1;
  const double p = -std::expm1(-hazard);
  const uint64_t accept_target = 20000;
  uint64_t decisions = 0;
  uint64_t accepted = 0;
  while (accepted < accept_target) {
    ++decisions;
    accepted += filter.Admit(rng, hazard);
  }
  const double mean_gap =
      static_cast<double>(decisions) / static_cast<double>(accept_target);
  EXPECT_NEAR(mean_gap, 1.0 / p, 0.05 * (1.0 / p));
}

}  // namespace
}  // namespace dwrs
