#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "bench_util.h"
#include "random/rng.h"
#include "util/check.h"
#include "util/math_util.h"

namespace dwrs {
namespace {

TEST(CheckTest, PassingCheckDoesNothing) {
  DWRS_CHECK(true);
  DWRS_CHECK_EQ(1, 1);
  DWRS_CHECK_GE(2.0, 1.0);
  SUCCEED();
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(DWRS_CHECK(false) << "boom", "DWRS_CHECK failed");
}

TEST(CheckDeathTest, FailingComparisonAborts) {
  EXPECT_DEATH(DWRS_CHECK_LT(3, 2), "DWRS_CHECK failed");
}

TEST(FloorLogBaseTest, PowersOfTwo) {
  EXPECT_EQ(FloorLogBase(1.0, 2.0), 0);
  EXPECT_EQ(FloorLogBase(1.9, 2.0), 0);
  EXPECT_EQ(FloorLogBase(2.0, 2.0), 1);
  EXPECT_EQ(FloorLogBase(3.999, 2.0), 1);
  EXPECT_EQ(FloorLogBase(4.0, 2.0), 2);
  EXPECT_EQ(FloorLogBase(1024.0, 2.0), 10);
}

TEST(FloorLogBaseTest, SubUnitWeightsClampToLevelZero) {
  EXPECT_EQ(FloorLogBase(0.5, 2.0), 0);
  EXPECT_EQ(FloorLogBase(1e-9, 2.0), 0);
}

TEST(FloorLogBaseTest, NonIntegerBase) {
  const double r = 2.5;
  for (int j = 0; j < 20; ++j) {
    const double x = PowInt(r, j);
    EXPECT_EQ(FloorLogBase(x, r), j) << "at j=" << j;
    EXPECT_EQ(FloorLogBase(x * 1.0001, r), j);
    if (j > 0) {
      EXPECT_EQ(FloorLogBase(x * 0.9999, r), j - 1);
    }
  }
}

// Golden boundary pins for the exponent-extraction fast path: weights
// exactly at a level boundary base^j must land on level j, one ulp below
// on level j-1, for power-of-two bases across the whole exponent range.
TEST(FloorLogBaseTest, GoldenPowerOfTwoBoundariesExact) {
  for (double base : {2.0, 4.0, 8.0, 1024.0}) {
    const int m = static_cast<int>(std::log2(base));
    for (int j = 1; m * j < 1020; j *= 3) {
      const double x = std::ldexp(1.0, m * j);  // base^j exactly
      ASSERT_EQ(FloorLogBase(x, base), j) << "base=" << base << " j=" << j;
      ASSERT_EQ(FloorLogBase(std::nextafter(x, 0.0), base), j - 1)
          << "base=" << base << " j=" << j;
      ASSERT_EQ(FloorLogBase(std::nextafter(x, 1e308), base), j)
          << "base=" << base << " j=" << j;
    }
  }
  // Full-range sanity: the top of the double range.
  EXPECT_EQ(FloorLogBase(std::ldexp(1.0, 1000), 2.0), 1000);
  EXPECT_EQ(FloorLogBase(std::numeric_limits<double>::max(), 2.0), 1023);
}

TEST(FloorLogBaseTest, GoldenNonPowerOfTwoBoundariesExact) {
  // The transcendental fallback still pins boundaries exactly via the
  // PowInt fix-up loops.
  for (double base : {2.5, 3.0, 6.0}) {
    for (int j = 1; j < 60; j += 7) {
      const double x = PowInt(base, j);
      ASSERT_EQ(FloorLogBase(x, base), j) << "base=" << base << " j=" << j;
      ASSERT_EQ(FloorLogBase(std::nextafter(x, 0.0), base), j - 1)
          << "base=" << base << " j=" << j;
    }
  }
}

TEST(PowerOfTwoExponentTest, DiscriminatesExactPowers) {
  EXPECT_EQ(PowerOfTwoExponent(2.0), 1);
  EXPECT_EQ(PowerOfTwoExponent(4.0), 2);
  EXPECT_EQ(PowerOfTwoExponent(1024.0), 10);
  EXPECT_EQ(PowerOfTwoExponent(3.0), 0);
  EXPECT_EQ(PowerOfTwoExponent(2.5), 0);
  EXPECT_EQ(PowerOfTwoExponent(1.0), 0);   // base 1 is not a usable level base
  EXPECT_EQ(PowerOfTwoExponent(0.5), 0);   // and neither is anything below 2
}

TEST(LevelIndexerTest, MatchesFloorLogBase) {
  Rng rng(71);
  for (double base : {2.0, 2.5, 4.0, 3.0}) {
    const LevelIndexer indexer(base);
    for (int i = 0; i < 2000; ++i) {
      const double x = std::exp(rng.NextDouble() * 40.0 - 2.0);
      ASSERT_EQ(indexer(x), FloorLogBase(x, base)) << "x=" << x
                                                   << " base=" << base;
    }
  }
}

TEST(FloorLogBaseTest, BoundaryConsistentWithPowInt) {
  // The definition requires base^j <= x < base^(j+1).
  for (double base : {2.0, 3.0, 2.5, 7.5}) {
    for (double x : {1.0, 1.5, 2.0, 10.0, 1e6, 3.14159e12}) {
      const int j = FloorLogBase(x, base);
      EXPECT_LE(PowInt(base, j), x);
      EXPECT_GT(PowInt(base, j + 1), x);
    }
  }
}

TEST(PowIntTest, MatchesStdPow) {
  for (double base : {2.0, 2.5, 3.0, 10.0}) {
    for (int j : {0, 1, 2, 7, 20}) {
      EXPECT_NEAR(PowInt(base, j), std::pow(base, j),
                  1e-9 * std::pow(base, j));
    }
  }
}

TEST(FloorLog2U64Test, Values) {
  EXPECT_EQ(FloorLog2U64(0), 0);
  EXPECT_EQ(FloorLog2U64(1), 0);
  EXPECT_EQ(FloorLog2U64(2), 1);
  EXPECT_EQ(FloorLog2U64(3), 1);
  EXPECT_EQ(FloorLog2U64(1ull << 40), 40);
  EXPECT_EQ(FloorLog2U64(UINT64_MAX), 63);
}

TEST(ClampTest, Basics) {
  EXPECT_EQ(Clamp(5.0, 0.0, 10.0), 5.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 10.0), 0.0);
  EXPECT_EQ(Clamp(15.0, 0.0, 10.0), 10.0);
}

TEST(AlmostEqualTest, RelativeTolerance) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 1e-12, 1e-9));
  EXPECT_FALSE(AlmostEqual(1.0, 1.1, 1e-9));
  EXPECT_TRUE(AlmostEqual(1e12, 1e12 + 1.0, 1e-9));
}

TEST(EpochBaseTest, PaperFormula) {
  EXPECT_DOUBLE_EQ(EpochBase(4, 16), 2.0);    // k/s < 2 -> 2
  EXPECT_DOUBLE_EQ(EpochBase(64, 16), 4.0);   // k/s = 4
  EXPECT_DOUBLE_EQ(EpochBase(100, 10), 10.0); // k/s = 10
}

TEST(MessageBoundTest, Theorem3Monotonicity) {
  // Bound grows with W and with k.
  EXPECT_LT(Theorem3MessageBound(16, 8, 1e4),
            Theorem3MessageBound(16, 8, 1e8));
  EXPECT_LT(Theorem3MessageBound(16, 8, 1e6),
            Theorem3MessageBound(256, 8, 1e6));
  EXPECT_GT(Theorem3MessageBound(16, 8, 1e6), 0.0);
}

TEST(MessageBoundTest, NaiveDominatesTheorem3) {
  for (int k : {8, 64, 512}) {
    for (double w : {1e4, 1e6, 1e9}) {
      EXPECT_GT(NaiveMessageBound(k, 16, w), Theorem3MessageBound(k, 16, w));
    }
  }
}

// ---------------------------------------------------------------------
// Bench JSON emission (bench/bench_util.h): the BENCH_*.json files are
// parsed by downstream tooling, so non-finite numbers and unescaped
// strings are silent corruption.

TEST(JsonNumberTest, FiniteValuesUseCompactDecimal) {
  EXPECT_EQ(bench::JsonNumber(0.0), "0");
  EXPECT_EQ(bench::JsonNumber(2.5), "2.5");
  EXPECT_EQ(bench::JsonNumber(-1e-9), "-1e-09");
  EXPECT_EQ(bench::JsonNumber(1234567890.0), "1234567890");
}

TEST(JsonNumberTest, NonFiniteBecomesNull) {
  EXPECT_EQ(bench::JsonNumber(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(bench::JsonNumber(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(bench::JsonNumber(-std::numeric_limits<double>::infinity()),
            "null");
}

TEST(JsonQuoteTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(bench::JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(bench::JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(bench::JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(bench::JsonQuote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(bench::JsonQuote("line\nbreak\r"), "\"line\\nbreak\\r\"");
  EXPECT_EQ(bench::JsonQuote(std::string("nul\x01") + "\x1f"),
            "\"nul\\u0001\\u001f\"");
  // Non-ASCII bytes pass through untouched (UTF-8 is legal in JSON).
  EXPECT_EQ(bench::JsonQuote("\xC3\xA9"), "\"\xC3\xA9\"");
}

TEST(JsonBenchTest, WriteEmitsWellFormedJsonUnderHostileValues) {
  bench::JsonBench out("util_test_hostile");
  out.Param("workload", "zipf \"skewed\"\n")
      .Param("alpha", std::numeric_limits<double>::infinity());
  out.StartRow()
      .Field("backend", "sim\\runtime")
      .Field("items_per_sec", std::numeric_limits<double>::quiet_NaN())
      .Field("messages", uint64_t{42});
  const std::string path = out.Write();
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"alpha\": null"), std::string::npos);
  EXPECT_NE(json.find("\"items_per_sec\": null"), std::string::npos);
  EXPECT_NE(json.find("zipf \\\"skewed\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("sim\\\\runtime"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  // No raw control characters anywhere in the emitted file.
  for (char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n') << (int)c;
  }
  std::remove(path.c_str());
}

// Every BENCH_*.json names the machine that produced it, after the
// bench's own params, so rows recorded on different hardware can be
// told apart.
TEST(JsonBenchTest, WriteRecordsTheMachine) {
  bench::JsonBench out("util_test_machine");
  out.Param("workload", "zipf");
  out.StartRow().Field("messages", uint64_t{1});
  const std::string path = out.Write();
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  std::remove(path.c_str());

  const std::string nproc =
      "\"nproc\": " + std::to_string(bench::UsableCpus());
  const std::string cpu_model =
      "\"cpu_model\": " + bench::JsonQuote(bench::CpuModel());
  const std::string compiler =
      "\"compiler\": " + bench::JsonQuote(__VERSION__);
  const std::string build_type =
      "\"build_type\": " + bench::JsonQuote(DWRS_BUILD_TYPE);
  size_t last = json.find("\"workload\": \"zipf\"");
  ASSERT_NE(last, std::string::npos) << json;
  for (const std::string& param : {nproc, cpu_model, compiler, build_type}) {
    const size_t at = json.find(param);
    ASSERT_NE(at, std::string::npos) << param << " missing from " << json;
    EXPECT_GT(at, last) << param;
    last = at;
  }
  EXPECT_LT(last, json.find("\"rows\"")) << json;
  EXPECT_GE(bench::UsableCpus(), 1u);
  EXPECT_LE(bench::UsableCpus(), std::thread::hardware_concurrency());
  EXPECT_FALSE(bench::CpuModel().empty());
  // CMakeLists.txt passes CMAKE_BUILD_TYPE in.
  EXPECT_STRNE(DWRS_BUILD_TYPE, "unknown");
}

}  // namespace
}  // namespace dwrs
