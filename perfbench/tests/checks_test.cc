// The benchmark's output checks must pass on correct outputs and fail on
// each kind of corrupted output; otherwise error_frac = 0 would prove
// nothing.

#include "checks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common.h"
#include "core/sampler.h"
#include "engine/sharded_engine.h"
#include "query/live.h"

namespace perfbench {
namespace {

dwrs::Workload SmallInput() { return ZipfInput(4000, 7); }

// A real coordinator sample over `input` (one pass, ids unshifted).
std::vector<dwrs::KeyedItem> RealSample(const dwrs::Workload& input,
                                        int s) {
  dwrs::DistributedWswor sampler(
      {.num_sites = kSites, .sample_size = s, .seed = 11});
  sampler.Run(input);
  return sampler.Sample();
}

TEST(CheckFedSample, AcceptsARealSample) {
  const dwrs::Workload input = SmallInput();
  EXPECT_EQ(CheckFedSample(RealSample(input, 16), 16, input.events(), 0), "");
}

TEST(CheckFedSample, RejectsWrongSize) {
  const dwrs::Workload input = SmallInput();
  std::vector<dwrs::KeyedItem> sample = RealSample(input, 16);
  sample.pop_back();
  EXPECT_NE(CheckFedSample(sample, 16, input.events(), 0), "");
}

TEST(CheckFedSample, RejectsKeysOutOfOrder) {
  const dwrs::Workload input = SmallInput();
  std::vector<dwrs::KeyedItem> sample = RealSample(input, 16);
  std::swap(sample[3], sample[4]);
  EXPECT_NE(CheckFedSample(sample, 16, input.events(), 0), "");
  sample = RealSample(input, 16);
  sample[5].key = sample[4].key;  // a tie is not strictly decreasing
  EXPECT_NE(CheckFedSample(sample, 16, input.events(), 0), "");
}

TEST(CheckFedSample, RejectsAnIdNeverFed) {
  const dwrs::Workload input = SmallInput();
  std::vector<dwrs::KeyedItem> sample = RealSample(input, 16);
  sample[2].item.id += input.size();  // belongs to pass 1
  EXPECT_NE(CheckFedSample(sample, 16, input.events(), 0), "");
  // ... which pass 1 did feed.
  EXPECT_EQ(CheckFedSample(sample, 16, input.events(), 1), "");
}

TEST(CheckFedSample, RejectsAWrongWeight) {
  const dwrs::Workload input = SmallInput();
  std::vector<dwrs::KeyedItem> sample = RealSample(input, 16);
  sample[7].item.weight = std::nextafter(sample[7].item.weight, 1e300);
  EXPECT_NE(CheckFedSample(sample, 16, input.events(), 0), "");
}

TEST(CheckItemAccounting, RejectsLostItemsAndDroppedBatches) {
  EXPECT_EQ(CheckItemAccounting(100, 100, 0), "");
  EXPECT_NE(CheckItemAccounting(99, 100, 0), "");
  EXPECT_NE(CheckItemAccounting(100, 100, 1), "");
}

TEST(CheckSameMerge, RejectsAnyDifference) {
  dwrs::engine::ShardedEngineConfig config;
  config.num_sites = kSites;
  config.num_shards = 2;
  dwrs::engine::ShardedEngine eng(config);
  const dwrs::ShardedWsworEndpoints endpoints = dwrs::AttachShardedWswor(
      dwrs::WsworConfig{.num_sites = kSites, .sample_size = 16, .seed = 3},
      eng);
  const auto publishers = dwrs::query::EnableWsworLiveQueries(eng, endpoints);
  const dwrs::query::QueryService service(publishers->views());
  eng.Run(SmallInput());
  const dwrs::MergeableSample stopped = eng.MergedSample();
  const dwrs::MergeableSample live = service.Query().merged;
  eng.Shutdown();
  ASSERT_EQ(CheckSameMerge(live, stopped), "");
  ASSERT_FALSE(stopped.entries.empty());
  ASSERT_FALSE(stopped.level_counts.empty());

  dwrs::MergeableSample bad = live;
  bad.entries[0].key = std::nextafter(bad.entries[0].key, 0.0);
  EXPECT_NE(CheckSameMerge(bad, stopped), "");
  bad = live;
  bad.entries.pop_back();
  EXPECT_NE(CheckSameMerge(bad, stopped), "");
  bad = live;
  bad.state_version += 1;
  EXPECT_NE(CheckSameMerge(bad, stopped), "");
  bad = live;
  bad.level_counts[0].count += 1;
  EXPECT_NE(CheckSameMerge(bad, stopped), "");
  bad = live;
  bad.withheld.push_back({});
  EXPECT_NE(CheckSameMerge(bad, stopped), "");
}

TEST(PollResultOk, RejectsIncompleteOrStale) {
  dwrs::query::QueryResult result;
  result.complete = true;
  EXPECT_TRUE(PollResultOk(result));
  result.any_stale = true;
  EXPECT_FALSE(PollResultOk(result));
  result.any_stale = false;
  result.complete = false;
  EXPECT_FALSE(PollResultOk(result));
}

TEST(CheckDurableOutcome, RejectsEachDefect) {
  const std::vector<uint64_t> ids = {5, 9, 2};
  EXPECT_EQ(CheckDurableOutcome(true, true, ids, ids), "");
  EXPECT_NE(CheckDurableOutcome(false, true, ids, ids), "");
  EXPECT_NE(CheckDurableOutcome(true, false, ids, ids), "");
  EXPECT_NE(CheckDurableOutcome(true, true, ids, {5, 9, 3}), "");
  EXPECT_NE(CheckDurableOutcome(true, true, ids, {9, 5, 2}), "");
  EXPECT_NE(CheckDurableOutcome(true, true, {}, {}), "");
}

TEST(CheckTally, CountsAttemptsAndFailures) {
  CheckTally tally;
  tally.Expect(true, "a");
  tally.Expect(std::isfinite(std::numeric_limits<double>::quiet_NaN()),
               "estimate is finite");
  tally.Record("");
  tally.Record("broken");
  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(), 2u);
  ASSERT_EQ(tally.messages().size(), 2u);
  EXPECT_EQ(tally.messages()[0], "estimate is finite");
}

}  // namespace
}  // namespace perfbench
