// Span-ingestion (OnItems) hot-path tests: for every endpoint the span
// path must be message-for-message identical to the per-item OnItem path
// for every batching of the stream — the randomized filters are
// partition-invariant by construction (random/geometric_skip.h), so this
// holds exactly, not just distributionally. Also covered: the fault
// session's span splitting across crash windows, the engine's batch
// buffer recycling, and hot-path counter surfacing through engine::Stats.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "core/config.h"
#include "core/coordinator.h"
#include "core/naive.h"
#include "core/site.h"
#include "engine/engine.h"
#include "faults/fault_schedule.h"
#include "faults/harness.h"
#include "faults/session.h"
#include "hh/misra_gries.h"
#include "l1/deterministic_l1.h"
#include "l1/l1_tracker.h"
#include "l1/sqrtk_l1.h"
#include "random/rng.h"
#include "sampling/keyed_item.h"
#include "sim/deployment.h"
#include "sim/message.h"
#include "sim/node.h"
#include "stream/generators.h"
#include "stream/partitioners.h"
#include "stream/workload.h"
#include "unweighted/distributed_swor.h"
#include "unweighted/distributed_swr.h"
#include "window/distributed_window.h"

namespace dwrs {
namespace {

// Records a FNV-1a hash of every outbound message (direction, site and
// full payload including session stamps): two runs produced identical
// transcripts iff hash and count agree.
class HashingTransport : public sim::Transport {
 public:
  void SendToCoordinator(int site, const sim::Payload& msg) override {
    Fold(0, site, msg);
  }
  void SendToSite(int site, const sim::Payload& msg) override {
    Fold(1, site, msg);
  }
  void Broadcast(const sim::Payload& msg) override { Fold(2, -1, msg); }
  uint64_t step() const override { return now_; }

  void set_now(uint64_t now) { now_ = now; }
  uint64_t hash() const { return hash_; }
  uint64_t count() const { return count_; }

 private:
  void Fold(uint64_t direction, int site, const sim::Payload& msg) {
    const auto fold = [this](uint64_t v) {
      hash_ ^= v;
      hash_ *= 1099511628211ull;
    };
    fold(direction);
    fold(static_cast<uint64_t>(static_cast<int64_t>(site)));
    fold(msg.type);
    fold(msg.a);
    fold(msg.seq);
    fold(msg.epoch);
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(msg.x));
    std::memcpy(&bits, &msg.x, sizeof(bits));
    fold(bits);
    std::memcpy(&bits, &msg.y, sizeof(bits));
    fold(bits);
    fold(msg.words);
    ++count_;
  }

  uint64_t hash_ = 1469598103934665603ull;
  uint64_t count_ = 0;
  uint64_t now_ = 0;
};

// Control messages are applied only at stream positions that are span
// boundaries for every batching under test (1, 7 and 64 all divide 448),
// mirroring the backend contract that OnMessage never lands inside a
// span.
constexpr size_t kAligned = 448;
constexpr size_t kSpanSizes[] = {0 /* per-item OnItem */, 1, 7, 64};

std::vector<Item> ZipfItems(size_t n, uint64_t seed) {
  Workload w = WorkloadBuilder()
                   .num_sites(1)
                   .num_items(n)
                   .seed(seed)
                   .weights(std::make_unique<ZipfWeights>(uint64_t{1} << 16, 1.2))
                   .partitioner(std::make_unique<SingleSitePartitioner>())
                   .Build();
  std::vector<Item> items;
  items.reserve(n);
  for (uint64_t i = 0; i < w.size(); ++i) items.push_back(w.event(i).item);
  return items;
}

// Feeds the stream in spans of `span` items (0 = per-item OnItem calls),
// invoking `control` at every kAligned boundary.
template <typename Control>
void Feed(sim::SiteNode* site, HashingTransport* transport,
          const std::vector<Item>& items, size_t span, Control&& control) {
  const size_t n = items.size();
  size_t pos = 0;
  while (pos < n) {
    if (pos % kAligned == 0) {
      transport->set_now(pos);
      control(site, pos / kAligned);
    }
    if (span == 0) {
      site->OnItem(items[pos]);
      ++pos;
      continue;
    }
    const size_t chunk =
        std::min({span, kAligned - pos % kAligned, n - pos});
    site->OnItems(items.data() + pos, chunk);
    pos += chunk;
  }
}

// Runs the stream through a fresh endpoint per span size and expects all
// transcripts to be bit-identical.
template <typename MakeSite, typename Control>
void ExpectSpanInvariantTranscript(const std::string& label,
                                   const std::vector<Item>& items,
                                   MakeSite&& make, Control&& control) {
  uint64_t ref_hash = 0;
  uint64_t ref_count = 0;
  bool first = true;
  for (size_t span : kSpanSizes) {
    HashingTransport transport;
    auto site = make(&transport);
    Feed(site.get(), &transport, items, span, control);
    if (first) {
      ref_hash = transport.hash();
      ref_count = transport.count();
      ASSERT_GT(ref_count, 0u) << label << ": silent endpoint, vacuous test";
      first = false;
    } else {
      EXPECT_EQ(transport.hash(), ref_hash) << label << " span=" << span;
      EXPECT_EQ(transport.count(), ref_count) << label << " span=" << span;
    }
  }
}

sim::Payload Msg(uint32_t type, uint64_t a, double x) {
  sim::Payload msg;
  msg.type = type;
  msg.a = a;
  msg.x = x;
  msg.words = 2;
  return msg;
}

TEST(SpanTranscriptTest, WsworSite) {
  const std::vector<Item> items = ZipfItems(2240, /*seed=*/3);
  const WsworConfig config{.num_sites = 1, .sample_size = 8};
  ExpectSpanInvariantTranscript(
      "wswor", items,
      [&](sim::Transport* t) {
        return std::make_unique<WsworSite>(config, 0, t, /*seed=*/99);
      },
      [](sim::SiteNode* site, size_t block) {
        // Saturate levels one by one and grow the epoch threshold — the
        // full filter state machine, exercised mid-stream.
        site->OnMessage(Msg(kWsworLevelSaturated, block % 8, 0.0));
        if (block > 0) {
          site->OnMessage(
              Msg(kWsworUpdateEpoch, 0, std::pow(2.0, block)));
        }
      });
}

TEST(SpanTranscriptTest, NaiveSite) {
  const std::vector<Item> items = ZipfItems(2240, /*seed=*/4);
  ExpectSpanInvariantTranscript(
      "naive", items,
      [&](sim::Transport* t) {
        return std::make_unique<NaiveWsworSite>(/*sample_size=*/8, 0, t,
                                                /*seed=*/98);
      },
      [](sim::SiteNode*, size_t) {});
}

TEST(SpanTranscriptTest, UsworSite) {
  const std::vector<Item> items = ZipfItems(2240, /*seed=*/5);
  const UsworConfig config{.num_sites = 1, .sample_size = 8};
  ExpectSpanInvariantTranscript(
      "uswor", items,
      [&](sim::Transport* t) {
        return std::make_unique<UsworSite>(config, 0, t, /*seed=*/97);
      },
      [](sim::SiteNode* site, size_t block) {
        site->OnMessage(
            Msg(kUsworThreshold, 0, std::pow(0.6, static_cast<double>(block))));
      });
}

TEST(SpanTranscriptTest, L1Site) {
  const std::vector<Item> items = ZipfItems(2240, /*seed=*/6);
  const L1TrackerConfig config{.num_sites = 1, .eps = 0.4, .delta = 0.2};
  ExpectSpanInvariantTranscript(
      "l1", items,
      [&](sim::Transport* t) {
        return std::make_unique<L1Site>(config, 0, t, /*seed=*/96);
      },
      [](sim::SiteNode* site, size_t block) {
        if (block > 0) {
          site->OnMessage(
              Msg(kWsworUpdateEpoch, 0, 10.0 * std::pow(2.0, block)));
        }
      });
}

TEST(SpanTranscriptTest, SqrtkL1Site) {
  const std::vector<Item> items = ZipfItems(2240, /*seed=*/7);
  ExpectSpanInvariantTranscript(
      "sqrtk_l1", items,
      [&](sim::Transport* t) {
        return std::make_unique<SqrtkL1Site>(0, t, /*seed=*/95);
      },
      [](sim::SiteNode* site, size_t block) {
        site->OnMessage(
            Msg(kSqrtkNewPhase, 0, std::pow(0.5, static_cast<double>(block))));
      });
}

TEST(SpanTranscriptTest, DetL1Site) {
  const std::vector<Item> items = ZipfItems(2240, /*seed=*/8);
  ExpectSpanInvariantTranscript(
      "det_l1", items,
      [&](sim::Transport* t) {
        return std::make_unique<DetL1Site>(/*eps=*/0.1, 0, t);
      },
      [](sim::SiteNode*, size_t) {});
}

TEST(SpanTranscriptTest, WindowSite) {
  const std::vector<Item> items = ZipfItems(2240, /*seed=*/9);
  const WindowConfig config{
      .num_sites = 1, .sample_size = 8, .window = 600};
  ExpectSpanInvariantTranscript(
      "window", items,
      [&](sim::Transport* t) {
        return std::make_unique<WindowSite>(config, 0, t, /*seed=*/94);
      },
      // The control hook's only effect is the aligned step bump performed
      // by Feed itself; entries age out as the clock jumps, exercising
      // expiry-driven promotions identically for every span size.
      [](sim::SiteNode*, size_t) {});
}

TEST(SpanTranscriptTest, MisraGriesSite) {
  const std::vector<Item> items = ZipfItems(2240, /*seed=*/10);
  ExpectSpanInvariantTranscript(
      "mg_hh", items,
      [&](sim::Transport* t) {
        // sync_every deliberately coprime to every span size so Ship()
        // fires mid-span.
        return DistributedMgHh::MakeSite(0, /*capacity=*/16,
                                         /*sync_every=*/97, t);
      },
      [](sim::SiteNode*, size_t) {});
}

TEST(SpanTranscriptTest, SlottedSwrSite) {
  const std::vector<Item> items = ZipfItems(2240, /*seed=*/11);
  const SlottedSwrConfig config{.num_sites = 1, .sample_size = 8};
  ExpectSpanInvariantTranscript(
      "swr", items,
      [&](sim::Transport* t) {
        return std::make_unique<SlottedSwrSite>(config, 0, t, /*seed=*/93);
      },
      [](sim::SiteNode* site, size_t block) {
        site->OnMessage(
            Msg(kSwrThreshold, 0, std::pow(0.7, static_cast<double>(block))));
      });
}

// Under fault injection the session layer splits spans at crash/restart
// boundaries; the stamped upstream transcript (seq/epoch included) must
// still be independent of the batching, crashes, lost items, epochs and
// all.
TEST(SpanTranscriptTest, FaultSessionSpansMatchPerItem) {
  const std::vector<Item> items = ZipfItems(2240, /*seed=*/12);
  const WsworConfig config{.num_sites = 1, .sample_size = 8};
  faults::FaultConfig fault_config;
  fault_config.seed = 77;
  fault_config.crash_prob = 0.01;
  fault_config.crash_down_items = 16;
  const faults::FaultSchedule schedule(fault_config);

  uint64_t ref_hash = 0;
  uint64_t ref_count = 0;
  uint64_t ref_crashes = 0;
  bool first = true;
  for (size_t span : kSpanSizes) {
    HashingTransport transport;
    faults::SiteSession session(
        0, &transport, &schedule,
        [&config](sim::Transport* upper, uint32_t epoch) {
          return std::make_unique<WsworSite>(
              config, 0, upper, faults::RestartSeed(91, epoch));
        });
    Feed(&session, &transport, items, span,
         [&](sim::SiteNode* site, size_t block) {
           site->OnMessage(Msg(kWsworLevelSaturated, block % 8, 0.0));
           if (block > 0) {
             site->OnMessage(
                 Msg(kWsworUpdateEpoch, 0, std::pow(2.0, block)));
           }
           if (block == 3) {
             // A nack for the current epoch: the deferred go-back-N
             // replay must fire at the head of the next live run
             // identically for every batching.
             sim::Payload nack = Msg(faults::kSessionNack, 1, 0.0);
             nack.epoch = session.epoch();
             site->OnMessage(nack);
           }
         });
    if (first) {
      ref_hash = transport.hash();
      ref_count = transport.count();
      ref_crashes = session.crashes();
      ASSERT_GT(ref_count, 0u);
      ASSERT_GT(ref_crashes, 0u)
          << "schedule produced no crash; raise crash_prob";
      first = false;
    } else {
      EXPECT_EQ(transport.hash(), ref_hash) << "span=" << span;
      EXPECT_EQ(transport.count(), ref_count) << "span=" << span;
      EXPECT_EQ(session.crashes(), ref_crashes) << "span=" << span;
    }
  }
}

// The base-class OnItems default must loop over OnItem for endpoints
// that do not override the span path.
TEST(SpanApiTest, DefaultOnItemsLoopsOverOnItem) {
  struct Recorder : sim::SiteNode {
    void OnItem(const Item& item) override { ids.push_back(item.id); }
    void OnMessage(const sim::Payload&) override {}
    std::vector<uint64_t> ids;
  };
  Recorder recorder;
  const std::vector<Item> items = {{1, 1.0}, {2, 2.0}, {3, 3.0}};
  recorder.OnItems(items.data(), items.size());
  EXPECT_EQ(recorder.ids, (std::vector<uint64_t>{1, 2, 3}));
}

// Engine integration: the batch-buffer pool recycles in the steady state
// and the site hot-path counters surface through engine::Stats.
TEST(EngineHotPathTest, RecyclesBatchBuffersAndSurfacesCounters) {
  const WsworConfig config{.num_sites = 2, .sample_size = 8, .seed = 21};
  engine::Engine eng(engine::EngineConfig{
      .num_sites = 2, .batch_size = 64, .item_queue_batches = 4});
  const auto endpoints = sim::Deploy(
      eng, config.seed,
      [&](int i, sim::Transport* transport, uint64_t seed) {
        return std::make_unique<WsworSite>(config, i, transport, seed);
      },
      [&](sim::Transport* transport, uint64_t seed) {
        return std::make_unique<WsworCoordinator>(config, transport, seed);
      });
  const auto& sites = endpoints.sites;

  const std::vector<Item> items = ZipfItems(20000, /*seed=*/22);
  Rng partition(5);
  for (const Item& item : items) {
    eng.Push(static_cast<int>(partition.NextBounded(2)), item);
  }
  eng.Flush();

  const auto& stats = eng.stats();
  EXPECT_GT(stats.batches_recycled.load(), 0u);
  // Misses are a cold-start artifact (the pool warms to the queue depth);
  // steady-state ingestion must run overwhelmingly on recycled buffers.
  EXPECT_LT(stats.batch_pool_misses.load(),
            stats.batches_ingested.load() / 4);
  sim::SiteHotPathCounters expected;
  for (const auto& site : sites) expected += site->HotPathCounters();
  EXPECT_EQ(stats.keys_decided.load(), expected.keys_decided);
  EXPECT_EQ(stats.key_bits_consumed.load(), expected.key_bits_consumed);
  EXPECT_EQ(stats.skips_taken.load(), expected.skips_taken);
  EXPECT_GT(expected.skips_taken, 0u);
  eng.Shutdown();
}

// Span ingestion through the engine's span Push overload must agree with
// per-item Push: same batch boundaries, same spans at the worker, same
// RNG stream at the site. The naive protocol is used because it has no
// downstream control traffic, which makes even the throughput-mode run
// fully deterministic for a single site.
TEST(EngineHotPathTest, SpanPushMatchesPerItemPush) {
  const std::vector<Item> items = ZipfItems(3000, /*seed=*/32);

  const auto run = [&](bool span_push) {
    engine::Engine eng(engine::EngineConfig{.num_sites = 1, .batch_size = 32});
    const auto endpoints = sim::Deploy(
        eng, /*seed=*/31,
        [](int i, sim::Transport* transport, uint64_t seed) {
          return std::make_unique<NaiveWsworSite>(/*sample_size=*/8, i,
                                                  transport, seed);
        },
        [](sim::Transport*, uint64_t) {
          return std::make_unique<NaiveWsworCoordinator>(/*sample_size=*/8);
        });
    const NaiveWsworCoordinator& coordinator = *endpoints.coordinator;
    if (span_push) {
      eng.Push(0, items.data(), items.size());
    } else {
      for (const Item& item : items) eng.Push(0, item);
    }
    eng.Flush();
    std::vector<uint64_t> ids;
    for (const KeyedItem& ki : coordinator.Sample()) ids.push_back(ki.item.id);
    const uint64_t messages = eng.stats().total_messages();
    eng.Shutdown();
    return std::make_pair(ids, messages);
  };

  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace dwrs
