// E17 — Proposition 6/7 cost model: O(1) site work per update, O(1)
// expected random words per key decision, O(log s) coordinator work per
// accepted message. Google-benchmark microbenchmarks.

#include <benchmark/benchmark.h>

#include <memory>

#include "dwrs.h"
#include "random/distributions.h"
#include "random/lazy_exponential.h"
#include "sim/codec.h"

namespace dwrs {
namespace {

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.NextU64());
}
BENCHMARK(BM_RngNextU64);

void BM_Exponential(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(Exponential(rng));
}
BENCHMARK(BM_Exponential);

void BM_LazyExpDecision(benchmark::State& state) {
  // The hot filter decision at a site: is the key above the threshold?
  Rng rng(3);
  const double bound = 1.0 / static_cast<double>(state.range(0));
  uint64_t bits = 0;
  uint64_t decisions = 0;
  for (auto _ : state) {
    const auto d = DecideExponentialBelow(rng, bound);
    bits += static_cast<uint64_t>(d.bits_consumed);
    ++decisions;
    benchmark::DoNotOptimize(d.below_bound);
  }
  state.counters["bits/decision"] =
      static_cast<double>(bits) / static_cast<double>(decisions);
}
BENCHMARK(BM_LazyExpDecision)->Arg(1)->Arg(100)->Arg(100000);

void BM_Binomial(benchmark::State& state) {
  Rng rng(4);
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(Binomial(rng, n, 0.3));
}
BENCHMARK(BM_Binomial)->Arg(16)->Arg(1024)->Arg(1u << 20);

void BM_CentralizedWsworAdd(benchmark::State& state) {
  CentralizedWswor sampler(static_cast<int>(state.range(0)), 5);
  Rng rng(6);
  uint64_t id = 0;
  for (auto _ : state) {
    sampler.Add(Item{id++, 1.0 + rng.NextDouble() * 9.0});
  }
}
BENCHMARK(BM_CentralizedWsworAdd)->Arg(16)->Arg(256);

void BM_CentralizedWsworSkipAdd(benchmark::State& state) {
  CentralizedWsworSkip sampler(static_cast<int>(state.range(0)), 7);
  Rng rng(8);
  uint64_t id = 0;
  for (auto _ : state) {
    sampler.Add(Item{id++, 1.0 + rng.NextDouble() * 9.0});
  }
}
BENCHMARK(BM_CentralizedWsworSkipAdd)->Arg(16)->Arg(256);

void BM_DistributedWsworObserve(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  DistributedWswor sampler(
      WsworConfig{.num_sites = k, .sample_size = 32, .seed = 9});
  Rng rng(10);
  uint64_t id = 0;
  for (auto _ : state) {
    const int site = static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(k)));
    sampler.Observe(site, Item{id++, 1.0 + rng.NextDouble() * 15.0});
  }
  state.counters["msgs/item"] =
      static_cast<double>(sampler.stats().total_messages()) /
      static_cast<double>(sampler.items_observed());
}
BENCHMARK(BM_DistributedWsworObserve)->Arg(4)->Arg(64);

void BM_NaiveObserve(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  NaiveDistributedWswor sampler(k, 32, 11);
  Rng rng(12);
  uint64_t id = 0;
  for (auto _ : state) {
    const int site = static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(k)));
    sampler.Observe(site, Item{id++, 1.0 + rng.NextDouble() * 15.0});
  }
}
BENCHMARK(BM_NaiveObserve)->Arg(4)->Arg(64);

void BM_L1TrackerObserve(benchmark::State& state) {
  L1Tracker tracker(L1TrackerConfig{
      .num_sites = 8, .eps = 0.2, .delta = 0.2, .seed = 13});
  Rng rng(14);
  uint64_t id = 0;
  for (auto _ : state) {
    const int site = static_cast<int>(rng.NextBounded(8));
    tracker.Observe(site, Item{id++, 1.0 + rng.NextDouble() * 3.0});
  }
}
BENCHMARK(BM_L1TrackerObserve);

void BM_CodecEncode(benchmark::State& state) {
  sim::Payload msg;
  msg.type = 2;
  msg.a = 1234567;
  msg.x = 17.5;
  msg.y = 8.25e6;
  uint64_t bytes = 0;
  uint64_t msgs = 0;
  for (auto _ : state) {
    const auto encoded = sim::EncodePayload(msg);
    bytes += encoded.size();
    ++msgs;
    benchmark::DoNotOptimize(encoded.data());
  }
  state.counters["bytes/msg"] =
      static_cast<double>(bytes) / static_cast<double>(msgs);
}
BENCHMARK(BM_CodecEncode);

void BM_CodecRoundTrip(benchmark::State& state) {
  sim::Payload msg;
  msg.type = 2;
  msg.a = 1234567;
  msg.x = 17.5;
  msg.y = 8.25e6;
  for (auto _ : state) {
    const auto decoded = sim::DecodePayload(sim::EncodePayload(msg));
    benchmark::DoNotOptimize(decoded->a);
  }
}
BENCHMARK(BM_CodecRoundTrip);

void BM_SpaceSavingAdd(benchmark::State& state) {
  SpaceSaving ss(static_cast<size_t>(state.range(0)));
  Rng rng(15);
  for (auto _ : state) {
    ss.Add(rng.NextBounded(100000), 1.0 + rng.NextDouble());
  }
}
BENCHMARK(BM_SpaceSavingAdd)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace dwrs

BENCHMARK_MAIN();
