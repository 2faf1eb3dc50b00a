// E21 — hot-path anatomy: per-endpoint ingestion throughput of the span
// (OnItems) path vs the per-item path, and the geometric-skip thinning
// hit rate.
//
// Three wswor variants are measured:
//   legacy_peritem — the pre-span reference (virtual call per item,
//                    log-ratio level computation, fresh lazy-exponential
//                    decision per item), kept here in the bench to pin
//                    the before/after comparison;
//   peritem        — today's OnItem (the degenerate n=1 span: same skip
//                    filter, but per-call overhead per item);
//   batched        — OnItems over 1024-item spans, every loop-invariant
//                    hoisted, skips absorbed at O(1) amortized RNG cost.
// The PR target is batched >= 3x legacy_peritem on the Zipf workload.
//
// Every other endpoint (naive, uswor, l1, window, hh) reports peritem vs
// batched, plus an end-to-end single-site engine ingestion row (span
// Push + recycled batch buffers). Results go to BENCH_hotpath.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "random/lazy_exponential.h"
#include "sim/deployment.h"

namespace dwrs {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Message sink standing in for the coordinator: the bench measures pure
// site-side ingestion cost.
class SinkTransport : public sim::Transport {
 public:
  void SendToCoordinator(int /*site*/, const sim::Payload& msg) override {
    ++sent_;
    words_ += msg.words;
  }
  void SendToSite(int /*site*/, const sim::Payload& /*msg*/) override {}
  void Broadcast(const sim::Payload& /*msg*/) override {}
  uint64_t step() const override { return now_; }

  void set_now(uint64_t now) { now_ = now; }
  uint64_t sent() const { return sent_; }

 private:
  uint64_t sent_ = 0;
  uint64_t words_ = 0;
  uint64_t now_ = 0;
};

// The pre-span wswor site (PR 1/2 code): per-item virtual dispatch, a
// std::log ratio per level lookup, and a lazy-exponential threshold
// decision per item. This is the "per-item path" of the PR's acceptance
// criterion.
class LegacyWsworSite : public sim::SiteNode {
 public:
  LegacyWsworSite(const WsworConfig& config, int site_index,
                  sim::Transport* transport, uint64_t seed)
      : config_(config),
        site_index_(site_index),
        level_base_(config.ResolvedEpochBase()),
        transport_(transport),
        rng_(seed) {}

  void OnItem(const Item& item) override {
    if (config_.withhold_heavy) {
      const int level = LevelOf(item.weight);
      const bool saturated =
          static_cast<size_t>(level) < saturated_.size() &&
          saturated_[static_cast<size_t>(level)] != 0;
      if (!saturated) {
        sim::Payload msg;
        msg.type = kWsworEarly;
        msg.a = item.id;
        msg.x = item.weight;
        msg.words = 3;
        transport_->SendToCoordinator(site_index_, msg);
        return;
      }
    }
    const double bound = threshold_ > 0.0
                             ? item.weight / threshold_
                             : std::numeric_limits<double>::infinity();
    const LazyExpDecision decision = DecideExponentialBelow(rng_, bound);
    ++keys_decided_;
    key_bits_consumed_ += static_cast<uint64_t>(decision.bits_consumed);
    if (!decision.below_bound) return;
    sim::Payload msg;
    msg.type = kWsworRegular;
    msg.a = item.id;
    msg.x = item.weight;
    msg.y = item.weight / decision.value;
    msg.words = 4;
    transport_->SendToCoordinator(site_index_, msg);
  }

  void OnMessage(const sim::Payload& msg) override {
    switch (msg.type) {
      case kWsworLevelSaturated: {
        const size_t level = static_cast<size_t>(msg.a);
        if (level >= saturated_.size()) saturated_.resize(level + 1, 0);
        saturated_[level] = 1;
        break;
      }
      case kWsworUpdateEpoch:
        if (msg.x > threshold_) threshold_ = msg.x;
        break;
      default:
        break;
    }
  }

  sim::SiteHotPathCounters HotPathCounters() const override {
    return {keys_decided_, key_bits_consumed_, 0};
  }

 private:
  int LevelOf(double weight) const {
    if (weight < level_base_) return 0;
    return static_cast<int>(
        std::floor(std::log(weight) / std::log(level_base_)));
  }

  const WsworConfig config_;
  const int site_index_;
  const double level_base_;
  sim::Transport* transport_;
  Rng rng_;
  double threshold_ = 0.0;
  std::vector<uint8_t> saturated_;
  uint64_t keys_decided_ = 0;
  uint64_t key_bits_consumed_ = 0;
};

struct RunResult {
  double items_per_sec = 0.0;
  uint64_t messages = 0;
  sim::SiteHotPathCounters counters;
};

enum class Feed { kPerItem, kBatched };

constexpr size_t kSpan = 1024;

// Runs `items` through a freshly made site; `make` receives the
// transport and returns the warmed-up endpoint. Repeats `reps` times and
// keeps the fastest run (fresh endpoint per rep — sites are stateful).
template <typename MakeSite>
RunResult Measure(const std::vector<Item>& items, Feed feed, int reps,
                  MakeSite make) {
  RunResult best;
  for (int rep = 0; rep < reps; ++rep) {
    SinkTransport sink;
    std::unique_ptr<sim::SiteNode> site = make(&sink);
    const double t0 = Now();
    // Both feeds advance the transport clock at the same kSpan
    // boundaries so clock-driven endpoints (the sliding window) process
    // the identical workload — the comparison isolates the span-API
    // cost, not a different expiry schedule.
    if (feed == Feed::kPerItem) {
      for (size_t i = 0; i < items.size(); ++i) {
        if (i % kSpan == 0) sink.set_now(i);
        site->OnItem(items[i]);
      }
    } else {
      for (size_t off = 0; off < items.size(); off += kSpan) {
        sink.set_now(off);
        site->OnItems(items.data() + off,
                      std::min(kSpan, items.size() - off));
      }
    }
    const double t1 = Now();
    const double rate = static_cast<double>(items.size()) / (t1 - t0);
    if (rate > best.items_per_sec) {
      best.items_per_sec = rate;
      best.messages = sink.sent();
      best.counters = site->HotPathCounters();
    }
  }
  return best;
}

void Report(bench::JsonBench& json, const std::string& endpoint,
            const std::string& path, const RunResult& r) {
  const double skip_rate =
      r.counters.keys_decided > 0
          ? static_cast<double>(r.counters.skips_taken) /
                static_cast<double>(r.counters.keys_decided)
          : 0.0;
  bench::Row("  %-8s %-15s %12.0f items/s  %8llu msgs  skip-rate %.4f",
             endpoint.c_str(), path.c_str(), r.items_per_sec,
             static_cast<unsigned long long>(r.messages), skip_rate);
  json.StartRow()
      .Field("endpoint", endpoint)
      .Field("path", path)
      .Field("items_per_sec", r.items_per_sec)
      .Field("messages", r.messages)
      .Field("keys_decided", r.counters.keys_decided)
      .Field("key_bits_consumed", r.counters.key_bits_consumed)
      .Field("skips_taken", r.counters.skips_taken)
      .Field("skip_rate", skip_rate);
}

sim::Payload EpochMsg(double threshold) {
  sim::Payload msg;
  msg.type = kWsworUpdateEpoch;
  msg.x = threshold;
  msg.words = 2;
  return msg;
}

int Main(bool quick) {
  const uint64_t n = quick ? 150'000 : 2'000'000;
  const int reps = quick ? 2 : 3;
  const int s = 32;

  bench::Header("E21 hot-path anatomy",
                "span (OnItems) ingestion with geometric-skip thinning "
                "lifts single-site wswor >=3x over the per-item "
                "lazy-exponential path; skipped items cost no RNG work "
                "(skip rate ~= 1 in the steady state)");
  bench::JsonBench json("hotpath");
  json.Param("items", static_cast<double>(n))
      .Param("sample_size", static_cast<double>(s))
      .Param("span", static_cast<double>(kSpan))
      .Param("weights", "zipf(alpha=1.1)")
      .Param("quick", quick ? 1.0 : 0.0);

  // Single-site Zipf item stream (the acceptance workload).
  const Workload w = bench::ZipfWorkload(1, n, /*seed=*/7);
  std::vector<Item> items;
  items.reserve(n);
  double total_weight = 0.0;
  for (uint64_t i = 0; i < w.size(); ++i) {
    items.push_back(w.event(i).item);
    total_weight += w.event(i).item.weight;
  }

  // Steady-state filter levels: the epoch threshold a coordinator would
  // announce after W total weight (s-th largest of ~W/u surviving keys),
  // with every populated level saturated.
  const double steady_threshold = total_weight / s;
  const WsworConfig wswor_config{.num_sites = 1, .sample_size = s, .seed = 5};
  const auto make_wswor = [&](sim::Transport* t) {
    auto site = std::make_unique<WsworSite>(wswor_config, 0, t, /*seed=*/11);
    for (uint64_t level = 0; level < 64; ++level) {
      sim::Payload msg;
      msg.type = kWsworLevelSaturated;
      msg.a = level;
      msg.words = 2;
      site->OnMessage(msg);
    }
    site->OnMessage(EpochMsg(steady_threshold));
    return site;
  };
  const auto make_legacy = [&](sim::Transport* t) {
    auto site =
        std::make_unique<LegacyWsworSite>(wswor_config, 0, t, /*seed=*/11);
    for (uint64_t level = 0; level < 64; ++level) {
      sim::Payload msg;
      msg.type = kWsworLevelSaturated;
      msg.a = level;
      msg.words = 2;
      site->OnMessage(msg);
    }
    site->OnMessage(EpochMsg(steady_threshold));
    return site;
  };

  const RunResult legacy =
      Measure(items, Feed::kPerItem, reps, make_legacy);
  const RunResult peritem =
      Measure(items, Feed::kPerItem, reps, make_wswor);
  const RunResult batched =
      Measure(items, Feed::kBatched, reps, make_wswor);
  Report(json, "wswor", "legacy_peritem", legacy);
  Report(json, "wswor", "peritem", peritem);
  Report(json, "wswor", "batched", batched);
  bench::Row("    -> wswor batched vs legacy per-item: %.2fx  (target >=3x)",
             batched.items_per_sec / legacy.items_per_sec);
  bench::Row("    -> wswor batched vs span-1 per-item: %.2fx",
             batched.items_per_sec / peritem.items_per_sec);

  // Naive baseline: local top-s filter, now skip-thinned against the
  // heap minimum.
  const auto make_naive = [&](sim::Transport* t) {
    return std::make_unique<NaiveWsworSite>(s, 0, t, /*seed=*/13);
  };
  Report(json, "naive", "peritem",
         Measure(items, Feed::kPerItem, reps, make_naive));
  Report(json, "naive", "batched",
         Measure(items, Feed::kBatched, reps, make_naive));

  // Unweighted substrate: uniform keys against a shrinking tau — the
  // constant-hazard case where thinning is literal geometric skipping.
  const UsworConfig uswor_config{.num_sites = 1, .sample_size = s};
  const double steady_tau =
      static_cast<double>(s) / static_cast<double>(n);
  const auto make_uswor = [&](sim::Transport* t) {
    auto site = std::make_unique<UsworSite>(uswor_config, 0, t, /*seed=*/17);
    sim::Payload msg;
    msg.type = kUsworThreshold;
    msg.x = steady_tau;
    msg.words = 2;
    site->OnMessage(msg);
    return site;
  };
  Report(json, "uswor", "peritem",
         Measure(items, Feed::kPerItem, reps, make_uswor));
  Report(json, "uswor", "batched",
         Measure(items, Feed::kBatched, reps, make_uswor));

  // L1 tracker: ell-fold duplication, first copy skip-thinned.
  const L1TrackerConfig l1_config{.num_sites = 1, .eps = 0.1, .delta = 0.1};
  const double l1_threshold =
      total_weight * static_cast<double>(l1_config.Duplication()) /
      static_cast<double>(l1_config.SampleSize());
  const auto make_l1 = [&](sim::Transport* t) {
    auto site = std::make_unique<L1Site>(l1_config, 0, t, /*seed=*/19);
    site->OnMessage(EpochMsg(l1_threshold));
    return site;
  };
  Report(json, "l1", "peritem",
         Measure(items, Feed::kPerItem, reps, make_l1));
  Report(json, "l1", "batched",
         Measure(items, Feed::kBatched, reps, make_l1));

  // Sliding window: skyline maintenance (no thinning filter; the span
  // win is hoisted clock reads and expiry scans).
  const WindowConfig window_config{
      .num_sites = 1, .sample_size = s, .window = 16384};
  const auto make_window = [&](sim::Transport* t) {
    return std::make_unique<WindowSite>(window_config, 0, t, /*seed=*/23);
  };
  Report(json, "window", "peritem",
         Measure(items, Feed::kPerItem, reps, make_window));
  Report(json, "window", "batched",
         Measure(items, Feed::kBatched, reps, make_window));

  // Heavy hitters: Misra-Gries summary with periodic shipping.
  const auto make_hh = [&](sim::Transport* t) {
    return DistributedMgHh::MakeSite(0, /*capacity=*/256,
                                     /*sync_every=*/65536, t);
  };
  Report(json, "hh", "peritem",
         Measure(items, Feed::kPerItem, reps, make_hh));
  Report(json, "hh", "batched",
         Measure(items, Feed::kBatched, reps, make_hh));

  // End-to-end single-site engine ingestion: span Push, pooled batch
  // buffers, real coordinator thread.
  {
    engine::Engine eng(engine::EngineConfig{
        .num_sites = 1, .batch_size = kSpan});
    const auto endpoints = sim::Deploy(
        eng, wswor_config.seed,
        [&](int i, sim::Transport* transport, uint64_t seed) {
          return std::make_unique<WsworSite>(wswor_config, i, transport, seed);
        },
        [&](sim::Transport* transport, uint64_t seed) {
          return std::make_unique<WsworCoordinator>(wswor_config, transport,
                                                    seed);
        });
    const double t0 = Now();
    eng.Push(0, items.data(), items.size());
    eng.Flush();
    const double t1 = Now();
    RunResult engine_result;
    engine_result.items_per_sec = static_cast<double>(n) / (t1 - t0);
    engine_result.messages = eng.stats().total_messages();
    engine_result.counters = {eng.stats().keys_decided.load(),
                              eng.stats().key_bits_consumed.load(),
                              eng.stats().skips_taken.load()};
    Report(json, "wswor", "engine_e2e", engine_result);
    bench::Row("    -> engine pool: %llu recycled, %llu misses, "
               "%llu ingest stalls",
               static_cast<unsigned long long>(
                   eng.stats().batches_recycled.load()),
               static_cast<unsigned long long>(
                   eng.stats().batch_pool_misses.load()),
               static_cast<unsigned long long>(
                   eng.stats().ingest_stalls.load()));
    eng.Shutdown();
  }

  const std::string path = json.Write();
  bench::Row("wrote %s", path.c_str());
  return 0;
}

}  // namespace
}  // namespace dwrs

int main(int argc, char** argv) {
  return dwrs::Main(dwrs::bench::QuickMode(argc, argv));
}
