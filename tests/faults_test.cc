// Tests of the fault-injection subsystem (src/faults/): the seeded
// deterministic FaultSchedule, the FaultyTransport decorator, the
// seq/epoch reliability sessions, and — the headline guarantees — that
// (a) the same fault seed replays a bit-identical run on both execution
// backends, and (b) the hardened protocols under drop/duplicate/delay/
// crash-restart schedules still produce statistically exact samples, or
// a detectably degraded state; never a silently wrong sample.
//
// Run under -fsanitize=thread in CI (the engine-backed runs exercise the
// session layer from worker threads).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "durability/durable_shard.h"
#include "faults/fault_schedule.h"
#include "faults/faulty_transport.h"
#include "faults/harness.h"
#include "faults/session.h"
#include "l1/l1_tracker.h"
#include "random/rng.h"
#include "sim/message.h"
#include "sim/node.h"
#include "stream/workload.h"
#include "test_util.h"

namespace dwrs {
namespace {

using faults::Backend;
using faults::CoordinatorSession;
using faults::FaultConfig;
using faults::FaultSchedule;
using faults::FaultyL1;
using faults::FaultyTransport;
using faults::FaultyUswor;
using faults::FaultyWswor;
using faults::kSessionAck;
using faults::kSessionHello;
using faults::kSessionNack;
using faults::RunReport;
using faults::SiteSession;

// ---------------------------------------------------------------------
// Small fakes for session-layer unit tests.

struct RecordingTransport : sim::Transport {
  std::vector<std::pair<int, sim::Payload>> up;    // SendToCoordinator
  std::vector<std::pair<int, sim::Payload>> down;  // SendToSite
  void SendToCoordinator(int site, const sim::Payload& msg) override {
    up.emplace_back(site, msg);
  }
  void SendToSite(int site, const sim::Payload& msg) override {
    down.emplace_back(site, msg);
  }
  void Broadcast(const sim::Payload& msg) override {
    down.emplace_back(-1, msg);
  }
  uint64_t step() const override { return 0; }
};

struct RecordingCoordinator : sim::CoordinatorNode {
  std::vector<std::pair<int, sim::Payload>> delivered;
  void OnMessage(int site, const sim::Payload& msg) override {
    delivered.emplace_back(site, msg);
  }
};

// A site endpoint that forwards every item as one type-7 message.
struct EchoSite : sim::SiteNode {
  EchoSite(int site, sim::Transport* transport)
      : site_(site), transport_(transport) {}
  void OnItem(const Item& item) override {
    sim::Payload msg;
    msg.type = 7;
    msg.a = item.id;
    msg.x = item.weight;
    msg.words = 3;
    transport_->SendToCoordinator(site_, msg);
  }
  void OnMessage(const sim::Payload& msg) override {
    received.push_back(msg);
  }
  std::vector<sim::Payload> received;
  int site_;
  sim::Transport* transport_;
};

sim::Payload Stamped(uint32_t type, uint32_t seq, uint32_t epoch,
                     uint64_t a = 0) {
  sim::Payload msg;
  msg.type = type;
  msg.a = a;
  msg.seq = seq;
  msg.epoch = epoch;
  return msg;
}

// ---------------------------------------------------------------------
// FaultSchedule.

TEST(FaultScheduleTest, DeterministicAndSeedSensitive) {
  FaultConfig config;
  config.seed = 7;
  config.drop_prob = 0.3;
  config.duplicate_prob = 0.2;
  config.delay_prob = 0.2;
  config.max_delay = 5;
  config.crash_prob = 0.1;
  const FaultSchedule a(config);
  const FaultSchedule b(config);
  config.seed = 8;
  const FaultSchedule c(config);
  int differing = 0;
  for (uint32_t channel = 0; channel < 4; ++channel) {
    for (uint64_t index = 0; index < 200; ++index) {
      const auto fa = a.OnSend(channel, index);
      const auto fb = b.OnSend(channel, index);
      EXPECT_EQ(fa.drop, fb.drop);
      EXPECT_EQ(fa.duplicate, fb.duplicate);
      EXPECT_EQ(fa.delay, fb.delay);
      EXPECT_EQ(a.CrashesAt(static_cast<int>(channel), index),
                b.CrashesAt(static_cast<int>(channel), index));
      const auto fc = c.OnSend(channel, index);
      if (fa.drop != fc.drop || fa.delay != fc.delay) ++differing;
    }
  }
  EXPECT_GT(differing, 50);  // a different seed is a different schedule
}

TEST(FaultScheduleTest, ProbabilitiesRealized) {
  FaultConfig config;
  config.seed = 12;
  config.drop_prob = 0.25;
  const FaultSchedule schedule(config);
  uint64_t drops = 0;
  const uint64_t n = 40000;
  for (uint64_t i = 0; i < n; ++i) {
    if (schedule.OnSend(0, i).drop) ++drops;
  }
  const double rate = static_cast<double>(drops) / static_cast<double>(n);
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(FaultScheduleTest, ZeroProbabilitiesAreFaultFree) {
  const FaultSchedule schedule(FaultConfig{});
  for (uint64_t i = 0; i < 1000; ++i) {
    const auto f = schedule.OnSend(3, i);
    EXPECT_FALSE(f.drop);
    EXPECT_FALSE(f.duplicate);
    EXPECT_EQ(f.delay, 0);
    EXPECT_FALSE(schedule.CrashesAt(0, i));
  }
}

// ---------------------------------------------------------------------
// FaultyTransport.

TEST(FaultyTransportTest, NoFaultsPassThrough) {
  RecordingTransport inner;
  const FaultSchedule schedule(FaultConfig{});
  FaultyTransport faulty(&inner, &schedule, 2);
  faulty.SendToCoordinator(0, Stamped(1, 1, 0));
  faulty.SendToSite(1, Stamped(2, 1, 0));
  faulty.Broadcast(Stamped(3, 2, 0));
  EXPECT_EQ(inner.up.size(), 1u);
  // Broadcast decomposes into per-site sends under the fault model.
  EXPECT_EQ(inner.down.size(), 3u);
  EXPECT_EQ(faulty.counters().forwarded.load(), 4u);
  EXPECT_EQ(faulty.counters().dropped.load(), 0u);
}

TEST(FaultyTransportTest, DropEverythingUpstreamOnly) {
  RecordingTransport inner;
  FaultConfig config;
  config.drop_prob = 1.0;
  config.fault_downstream = false;
  const FaultSchedule schedule(config);
  FaultyTransport faulty(&inner, &schedule, 2);
  for (int i = 0; i < 10; ++i) faulty.SendToCoordinator(0, Stamped(1, 1, 0));
  faulty.SendToSite(0, Stamped(2, 1, 0));
  EXPECT_TRUE(inner.up.empty());
  EXPECT_EQ(inner.down.size(), 1u);
  EXPECT_EQ(faulty.counters().dropped.load(), 10u);
}

TEST(FaultyTransportTest, DelayedMessagesReleasedInOrderAndOnFlush) {
  RecordingTransport inner;
  FaultConfig config;
  config.delay_prob = 1.0;
  config.max_delay = 1;  // every message overtaken by exactly nothing:
                         // held one send, so order is preserved shifted
  const FaultSchedule schedule(config);
  FaultyTransport faulty(&inner, &schedule, 1);
  for (uint32_t i = 1; i <= 3; ++i) {
    faulty.SendToCoordinator(0, Stamped(1, i, 0));
  }
  // msg1 released during send of msg2, msg2 during send of msg3.
  ASSERT_EQ(inner.up.size(), 2u);
  EXPECT_EQ(inner.up[0].second.seq, 1u);
  EXPECT_EQ(inner.up[1].second.seq, 2u);
  faulty.FlushDelayed();
  ASSERT_EQ(inner.up.size(), 3u);
  EXPECT_EQ(inner.up[2].second.seq, 3u);
  EXPECT_EQ(faulty.counters().delayed.load(), 3u);
}

TEST(FaultyTransportTest, DisabledTransportIsTransparent) {
  RecordingTransport inner;
  FaultConfig config;
  config.drop_prob = 1.0;
  const FaultSchedule schedule(config);
  FaultyTransport faulty(&inner, &schedule, 1);
  faulty.set_enabled(false);
  for (int i = 0; i < 5; ++i) faulty.SendToCoordinator(0, Stamped(1, 1, 0));
  EXPECT_EQ(inner.up.size(), 5u);
}

// ---------------------------------------------------------------------
// CoordinatorSession.

TEST(CoordinatorSessionTest, InOrderDeliveryWithCumulativeAcks) {
  RecordingTransport lower;
  RecordingCoordinator inner;
  CoordinatorSession session(2, &inner, &lower, nullptr);
  session.OnMessage(0, Stamped(7, 1, 0, 100));
  session.OnMessage(0, Stamped(7, 2, 0, 101));
  session.OnMessage(1, Stamped(7, 1, 0, 200));
  ASSERT_EQ(inner.delivered.size(), 3u);
  EXPECT_EQ(inner.delivered[0].second.a, 100u);
  EXPECT_EQ(inner.delivered[2].first, 1);
  ASSERT_EQ(lower.down.size(), 3u);
  EXPECT_EQ(lower.down[1].second.type, static_cast<uint32_t>(kSessionAck));
  EXPECT_EQ(lower.down[1].second.a, 2u);  // cumulative
  EXPECT_EQ(session.delivered(), 3u);
  EXPECT_TRUE(session.AllGapsResolved());
}

TEST(CoordinatorSessionTest, DuplicatesSuppressedAndReAcked) {
  RecordingTransport lower;
  RecordingCoordinator inner;
  CoordinatorSession session(1, &inner, &lower, nullptr);
  session.OnMessage(0, Stamped(7, 1, 0));
  session.OnMessage(0, Stamped(7, 1, 0));  // network duplicate
  EXPECT_EQ(inner.delivered.size(), 1u);
  EXPECT_EQ(session.duplicates_dropped(), 1u);
  // Both the delivery and the duplicate draw an ack.
  EXPECT_EQ(lower.down.size(), 2u);
  EXPECT_EQ(lower.down[1].second.a, 1u);
}

TEST(CoordinatorSessionTest, GapNackedOncePerPositionThenRecovered) {
  RecordingTransport lower;
  RecordingCoordinator inner;
  CoordinatorSession session(1, &inner, &lower, nullptr);
  session.OnMessage(0, Stamped(7, 1, 0));
  session.OnMessage(0, Stamped(7, 3, 0));  // 2 missing
  session.OnMessage(0, Stamped(7, 4, 0));  // still missing: no second nack
  EXPECT_EQ(session.gaps_detected(), 2u);
  EXPECT_EQ(session.nacks_sent(), 1u);
  EXPECT_FALSE(session.AllGapsResolved());
  int nacks = 0;
  for (const auto& [site, msg] : lower.down) {
    if (msg.type == kSessionNack) {
      ++nacks;
      EXPECT_EQ(msg.a, 2u);
    }
  }
  EXPECT_EQ(nacks, 1);
  // Go-back-N retransmission arrives: 2, 3, 4 in order.
  session.OnMessage(0, Stamped(7, 2, 0));
  session.OnMessage(0, Stamped(7, 3, 0));
  session.OnMessage(0, Stamped(7, 4, 0));
  EXPECT_EQ(inner.delivered.size(), 4u);
  EXPECT_TRUE(session.AllGapsResolved());
}

TEST(CoordinatorSessionTest, EpochBumpDetectsCrashAndResyncs) {
  RecordingTransport lower;
  RecordingCoordinator inner;
  int resync_calls = 0;
  CoordinatorSession session(1, &inner, &lower, [&resync_calls] {
    ++resync_calls;
    sim::Payload state;
    state.type = 4;
    state.x = 8.0;
    return std::vector<sim::Payload>{state};
  });
  session.OnMessage(0, Stamped(7, 1, 0));
  session.OnMessage(0, Stamped(kSessionHello, 1, 1));
  EXPECT_EQ(session.crash_detections(), 1u);
  EXPECT_EQ(resync_calls, 1);
  EXPECT_EQ(session.resyncs_sent(), 1u);
  // The hello is session-internal: not handed to the protocol endpoint.
  EXPECT_EQ(inner.delivered.size(), 1u);
  // Leftover traffic from the dead incarnation is dropped.
  session.OnMessage(0, Stamped(7, 2, 0));
  EXPECT_EQ(session.stale_epoch_dropped(), 1u);
  EXPECT_EQ(inner.delivered.size(), 1u);
  // Post-restart traffic flows normally.
  session.OnMessage(0, Stamped(7, 2, 1, 300));
  EXPECT_EQ(inner.delivered.size(), 2u);
  EXPECT_EQ(inner.delivered[1].second.a, 300u);
}

TEST(CoordinatorSessionTest, ImplicitHelloWhenHelloLost) {
  RecordingTransport lower;
  RecordingCoordinator inner;
  CoordinatorSession session(1, &inner, &lower, nullptr);
  // First thing seen from the site is a post-restart message with seq 2
  // (the hello with seq 1 was dropped): the epoch bump itself announces
  // the restart, and the gap machinery recovers the hello.
  session.OnMessage(0, Stamped(7, 2, 1));
  EXPECT_EQ(session.crash_detections(), 1u);
  EXPECT_EQ(session.gaps_detected(), 1u);
  EXPECT_EQ(session.nacks_sent(), 1u);
  session.OnMessage(0, Stamped(kSessionHello, 1, 1));
  session.OnMessage(0, Stamped(7, 2, 1));
  EXPECT_EQ(inner.delivered.size(), 1u);
  EXPECT_TRUE(session.AllGapsResolved());
}

// ---------------------------------------------------------------------
// SiteSession.

TEST(SiteSessionTest, StampsMonotonicallyAndClearsOnAck) {
  RecordingTransport lower;
  const FaultSchedule schedule(FaultConfig{});
  SiteSession session(0, &lower, &schedule,
                      [](sim::Transport* upper, uint32_t) {
                        return std::make_unique<EchoSite>(0, upper);
                      });
  session.OnItem(Item{10, 1.0});
  session.OnItem(Item{11, 2.0});
  ASSERT_EQ(lower.up.size(), 2u);
  EXPECT_EQ(lower.up[0].second.seq, 1u);
  EXPECT_EQ(lower.up[1].second.seq, 2u);
  EXPECT_EQ(lower.up[0].second.epoch, 0u);
  EXPECT_EQ(session.unacked_size(), 2u);
  session.OnMessage(Stamped(kSessionAck, 0, 0, /*a=*/1));
  EXPECT_EQ(session.unacked_size(), 1u);
  session.OnMessage(Stamped(kSessionAck, 0, 0, /*a=*/2));
  EXPECT_EQ(session.unacked_size(), 0u);
}

TEST(SiteSessionTest, NackTriggersByteIdenticalGoBackN) {
  RecordingTransport lower;
  const FaultSchedule schedule(FaultConfig{});
  SiteSession session(0, &lower, &schedule,
                      [](sim::Transport* upper, uint32_t) {
                        return std::make_unique<EchoSite>(0, upper);
                      });
  for (uint64_t i = 0; i < 4; ++i) session.OnItem(Item{i, 1.0});
  lower.up.clear();
  session.OnMessage(Stamped(kSessionNack, 0, 0, /*a=*/2));
  // Replay is deferred to the site's own next step (see session.h), so
  // the nack alone sends nothing.
  EXPECT_TRUE(session.retransmit_pending());
  EXPECT_TRUE(lower.up.empty());
  session.OnItem(Item{4, 1.0});
  ASSERT_EQ(lower.up.size(), 4u);  // 2, 3, 4 replayed, then the new 5
  EXPECT_EQ(lower.up[0].second.seq, 2u);
  EXPECT_EQ(lower.up[0].second.a, 1u);  // same payload bytes
  EXPECT_EQ(lower.up[2].second.seq, 4u);
  EXPECT_EQ(lower.up[3].second.seq, 5u);
  EXPECT_FALSE(session.retransmit_pending());
}

TEST(SiteSessionTest, CrashWipesStateAndRestartBumpsEpoch) {
  RecordingTransport lower;
  FaultConfig config;
  config.seed = 3;
  config.crash_prob = 1.0;  // crash on the very first arrival
  config.crash_down_items = 2;
  const FaultSchedule schedule(config);
  SiteSession session(0, &lower, &schedule,
                      [](sim::Transport* upper, uint32_t) {
                        return std::make_unique<EchoSite>(0, upper);
                      });
  session.OnItem(Item{0, 1.0});  // crash; lost
  EXPECT_TRUE(session.down());
  EXPECT_EQ(session.crashes(), 1u);
  session.OnMessage(Stamped(4, 1, 0));  // dead processes drop mail
  EXPECT_EQ(session.messages_dropped_down(), 1u);
  session.OnItem(Item{1, 1.0});  // lost; down window ends; restart
  EXPECT_FALSE(session.down());
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_EQ(session.items_lost(), 2u);
  // The restart announces itself: a stamped hello, seq 1 of epoch 1.
  ASSERT_EQ(lower.up.size(), 1u);
  EXPECT_EQ(lower.up[0].second.type, static_cast<uint32_t>(kSessionHello));
  EXPECT_EQ(lower.up[0].second.seq, 1u);
  EXPECT_EQ(lower.up[0].second.epoch, 1u);
}

// ---------------------------------------------------------------------
// Restore-and-continue: a session restored from SaveState() into a fresh
// object behaves exactly as the original from there on — same sends,
// same deliveries, same final State.

std::unique_ptr<sim::SiteNode> MakeEchoSite(sim::Transport* upper,
                                            uint32_t /*epoch*/) {
  return std::make_unique<EchoSite>(0, upper);
}

TEST(SessionRestoreTest, SiteSessionResumesAPendingNackReplay) {
  RecordingTransport lower_a;
  RecordingTransport lower_b;
  const FaultSchedule schedule(FaultConfig{});
  SiteSession original(0, &lower_a, &schedule, MakeEchoSite);
  for (uint64_t i = 0; i < 4; ++i) original.OnItem(Item{i, 1.0});
  original.OnMessage(Stamped(kSessionAck, 0, 0, /*a=*/1));
  original.OnMessage(Stamped(kSessionNack, 0, 0, /*a=*/3));
  original.OnMessage(Stamped(kSessionNack, 0, 0, /*a=*/2));
  ASSERT_TRUE(original.retransmit_pending());

  SiteSession restored(0, &lower_b, &schedule, MakeEchoSite);
  restored.RestoreState(original.SaveState());
  EXPECT_EQ(restored.SaveState(), original.SaveState());
  EXPECT_TRUE(lower_b.up.empty());  // restoring sends nothing
  lower_a.up.clear();

  const auto both = [&](const auto& step) {
    step(original);
    step(restored);
  };
  const Item span[] = {{4, 1.0}, {5, 2.0}, {6, 3.0}};
  both([&](SiteSession& s) { s.OnItems(span, 3); });
  both([](SiteSession& s) { s.OnMessage(Stamped(kSessionAck, 0, 0, 5)); });
  both([](SiteSession& s) { s.OnMessage(Stamped(kSessionNack, 0, 0, 6)); });
  both([](SiteSession& s) { s.OnItem(Item{7, 1.0}); });
  both([](SiteSession& s) { s.RetransmitAllUnacked(); });
  both([](SiteSession& s) { s.OnMessage(Stamped(kSessionAck, 0, 0, 7)); });

  // The replay the nack asked for before the save (seqs 2-4) leads.
  ASSERT_GE(lower_b.up.size(), 3u);
  EXPECT_EQ(lower_b.up[0].second.seq, 2u);
  EXPECT_EQ(lower_b.up[2].second.seq, 4u);
  EXPECT_EQ(lower_b.up, lower_a.up);
  EXPECT_EQ(restored.SaveState(), original.SaveState());
  EXPECT_EQ(restored.unacked_size(), 1u);
}

TEST(SessionRestoreTest, SiteSessionResumesInsideACrashDownWindow) {
  RecordingTransport lower_a;
  RecordingTransport lower_b;
  FaultConfig config;
  config.seed = 5;
  config.crash_prob = 0.2;
  config.crash_down_items = 3;
  const FaultSchedule schedule(config);
  SiteSession original(0, &lower_a, &schedule, MakeEchoSite);
  uint64_t id = 0;
  while (!original.down()) {
    ASSERT_LT(id, 1000u) << " no crash scheduled";
    original.OnItem(Item{id++, 1.0});
  }
  const uint32_t saved_epoch = original.epoch();

  SiteSession restored(0, &lower_b, &schedule, MakeEchoSite);
  restored.RestoreState(original.SaveState());
  EXPECT_TRUE(restored.down());
  EXPECT_EQ(restored.endpoint(), nullptr);  // no endpoint while down
  EXPECT_EQ(restored.SaveState(), original.SaveState());
  lower_a.up.clear();

  const auto both = [&](const auto& step) {
    step(original);
    step(restored);
  };
  // Mail for the dead process, then the rest of the window, the restart's
  // hello, and live traffic acked at whatever epoch the site is in.
  both([](SiteSession& s) { s.OnMessage(Stamped(4, 1, 0)); });
  for (int i = 0; i < 60; ++i, ++id) {
    both([&](SiteSession& s) { s.OnItem(Item{id, 1.0}); });
    if (i % 5 == 4) {
      both([&](SiteSession& s) {
        s.OnMessage(Stamped(kSessionAck, 0, s.epoch(), /*a=*/2));
      });
    }
  }

  EXPECT_GT(restored.epoch(), saved_epoch);
  ASSERT_FALSE(lower_b.up.empty());
  EXPECT_EQ(lower_b.up[0].second.type, static_cast<uint32_t>(kSessionHello));
  EXPECT_EQ(lower_b.up[0].second.epoch, saved_epoch + 1);
  EXPECT_EQ(lower_b.up, lower_a.up);
  EXPECT_EQ(restored.SaveState(), original.SaveState());
}

TEST(SessionRestoreTest, CoordinatorSessionResumesWithAnOpenGap) {
  RecordingTransport lower_a;
  RecordingTransport lower_b;
  RecordingCoordinator inner_a;
  RecordingCoordinator inner_b;
  const auto resync = [] {
    sim::Payload threshold;
    threshold.type = 4;
    threshold.x = 8.0;
    return std::vector<sim::Payload>{threshold};
  };
  CoordinatorSession original(2, &inner_a, &lower_a, resync);
  original.OnMessage(0, Stamped(7, 1, 0, 100));
  original.OnMessage(0, Stamped(7, 3, 0, 102));  // 2 missing: nacked
  original.OnMessage(1, Stamped(7, 1, 0, 200));
  original.OnMessage(1, Stamped(7, 2, 0, 201));
  ASSERT_FALSE(original.AllGapsResolved());

  CoordinatorSession restored(2, &inner_b, &lower_b, resync);
  restored.RestoreState(original.SaveState());
  EXPECT_FALSE(restored.AllGapsResolved());
  EXPECT_EQ(restored.SaveState(), original.SaveState());
  EXPECT_TRUE(lower_b.down.empty());  // restoring sends nothing
  inner_a.delivered.clear();
  lower_a.down.clear();

  const auto both = [&](int site, const sim::Payload& msg) {
    original.OnMessage(site, msg);
    restored.OnMessage(site, msg);
  };
  both(0, Stamped(7, 4, 0, 103));  // the gap is already nacked
  both(0, Stamped(7, 2, 0, 101));  // go-back-N fills it
  both(0, Stamped(7, 3, 0, 102));
  both(0, Stamped(7, 4, 0, 103));
  both(0, Stamped(7, 3, 0, 102));  // duplicate: re-acked
  both(1, Stamped(kSessionHello, 1, 1));  // restart: resynced
  both(1, Stamped(7, 3, 0, 202));         // stale epoch: dropped
  both(1, Stamped(7, 3, 1, 301));         // new gap: nacked
  both(1, Stamped(7, 2, 1, 300));
  both(1, Stamped(7, 3, 1, 301));

  for (const auto& [site, msg] : lower_b.down) {
    EXPECT_FALSE(site == 0 && msg.type == kSessionNack)
        << " the gap nacked before the save was nacked again";
  }
  EXPECT_EQ(inner_b.delivered.size(), 5u);
  EXPECT_EQ(inner_b.delivered, inner_a.delivered);
  EXPECT_EQ(lower_b.down, lower_a.down);
  EXPECT_EQ(restored.SaveState(), original.SaveState());
  EXPECT_TRUE(restored.AllGapsResolved());
  EXPECT_EQ(restored.resyncs_sent(), 1u);
}

TEST(SessionRestoreDeathTest, CoordinatorSessionRejectsAnotherPeerCount) {
  RecordingTransport lower;
  RecordingCoordinator inner;
  const CoordinatorSession two(2, &inner, &lower, nullptr);
  CoordinatorSession three(3, &inner, &lower, nullptr);
  EXPECT_DEATH(three.RestoreState(two.SaveState()), "peers");
}

// ---------------------------------------------------------------------
// Seed-sweep determinism + cross-backend bit-identity.

Workload SmallWeighted(const std::vector<double>& weights, int sites,
                       uint64_t seed) {
  std::vector<WorkloadEvent> events;
  Rng rng(seed);
  for (uint64_t i = 0; i < weights.size(); ++i) {
    events.push_back(WorkloadEvent{
        static_cast<int>(rng.NextBounded(static_cast<uint64_t>(sites))),
        Item{i, weights[i]}});
  }
  return Workload(sites, std::move(events));
}

Workload SweepWorkload(int k, uint64_t n, uint64_t seed) {
  return WorkloadBuilder()
      .num_sites(k)
      .num_items(n)
      .seed(seed)
      .weights(std::make_unique<UniformWeights>(1.0, 32.0))
      .partitioner(std::make_unique<RandomPartitioner>())
      .Build();
}

// A mixed fault schedule whose intensities vary with the seed, so the
// sweep covers drop-heavy, delay-heavy, and crashy regimes.
FaultConfig MixedFaults(uint64_t fault_seed) {
  FaultConfig config;
  config.seed = fault_seed;
  config.drop_prob = 0.05 + 0.05 * static_cast<double>(fault_seed % 3);
  config.duplicate_prob = 0.05 * static_cast<double>(fault_seed % 2);
  config.delay_prob = 0.10;
  config.max_delay = 3;
  config.crash_prob = (fault_seed % 4 == 0) ? 0.01 : 0.0;
  config.crash_down_items = 5;
  return config;
}

struct Transcript {
  uint64_t hash = 0;
  uint64_t delivered = 0;
  std::vector<uint64_t> sample;
  uint64_t crashes = 0;
  uint64_t lost_unacked = 0;
};

template <typename Harness, typename Config>
Transcript RunOnce(const Config& config, const FaultConfig& fault_config,
                   const Workload& workload, Backend backend) {
  Harness run(config, fault_config, backend);
  run.Run(workload);
  const RunReport report = run.report();
  return Transcript{report.transcript_hash, report.delivered,
                    run.SampleIds(), report.crashes, report.lost_unacked};
}

void ExpectSameTranscript(const Transcript& a, const Transcript& b,
                          uint64_t fault_seed, const char* what) {
  EXPECT_EQ(a.hash, b.hash) << what << " fault seed " << fault_seed;
  EXPECT_EQ(a.delivered, b.delivered) << what << " fault seed " << fault_seed;
  EXPECT_EQ(a.sample, b.sample) << what << " fault seed " << fault_seed;
  EXPECT_EQ(a.crashes, b.crashes) << what << " fault seed " << fault_seed;
  EXPECT_EQ(a.lost_unacked, b.lost_unacked)
      << what << " fault seed " << fault_seed;
}

TEST(FaultSweepTest, WsworReplaysBitIdenticallyOnBothBackendsAcross50Seeds) {
  const Workload w = SweepWorkload(4, 400, /*seed=*/17);
  const WsworConfig config{.num_sites = 4, .sample_size = 8, .seed = 99};
  int runs_with_faults = 0;
  for (uint64_t fault_seed = 0; fault_seed < 50; ++fault_seed) {
    const FaultConfig fc = MixedFaults(fault_seed);
    const Transcript sim_a =
        RunOnce<FaultyWswor>(config, fc, w, Backend::kSim);
    const Transcript sim_b =
        RunOnce<FaultyWswor>(config, fc, w, Backend::kSim);
    ExpectSameTranscript(sim_a, sim_b, fault_seed, "sim replay");
    const Transcript eng =
        RunOnce<FaultyWswor>(config, fc, w, Backend::kEngine);
    ExpectSameTranscript(sim_a, eng, fault_seed, "sim vs engine");
    if (sim_a.delivered > 0) ++runs_with_faults;
    EXPECT_EQ(sim_a.sample.size(), 8u) << " fault seed " << fault_seed;
  }
  EXPECT_EQ(runs_with_faults, 50);
}

TEST(FaultSweepTest, UnweightedAndL1ReplayDeterministically) {
  const Workload w = SweepWorkload(3, 300, /*seed=*/23);
  for (uint64_t fault_seed = 100; fault_seed < 112; ++fault_seed) {
    const FaultConfig fc = MixedFaults(fault_seed);
    const UsworConfig config{.num_sites = 3, .sample_size = 6, .seed = 5};
    const Transcript sim_a =
        RunOnce<FaultyUswor>(config, fc, w, Backend::kSim);
    const Transcript sim_b =
        RunOnce<FaultyUswor>(config, fc, w, Backend::kSim);
    ExpectSameTranscript(sim_a, sim_b, fault_seed, "uswor sim replay");
    const Transcript eng =
        RunOnce<FaultyUswor>(config, fc, w, Backend::kEngine);
    ExpectSameTranscript(sim_a, eng, fault_seed, "uswor sim vs engine");
  }
  const Workload wl1 = SweepWorkload(3, 150, /*seed=*/29);
  for (uint64_t fault_seed = 200; fault_seed < 206; ++fault_seed) {
    const FaultConfig fc = MixedFaults(fault_seed);
    L1TrackerConfig config;
    config.num_sites = 3;
    config.eps = 0.3;
    config.delta = 0.2;
    config.seed = 31;
    const Transcript sim_a = RunOnce<FaultyL1>(config, fc, wl1, Backend::kSim);
    const Transcript sim_b = RunOnce<FaultyL1>(config, fc, wl1, Backend::kSim);
    ExpectSameTranscript(sim_a, sim_b, fault_seed, "l1 sim replay");
    const Transcript eng =
        RunOnce<FaultyL1>(config, fc, wl1, Backend::kEngine);
    ExpectSameTranscript(sim_a, eng, fault_seed, "l1 sim vs engine");
  }
}

// ---------------------------------------------------------------------
// Distributional exactness under faults. The reliability layer turns the
// lossy transport back into exactly-once delivery, so the sample-set
// distribution must match the exact SWOR law — verified by chi-square
// over the full set distribution, exactly as in the reliable tests.

TEST(FaultDistributionTest, WsworExactUnderDropDuplicateDelay) {
  const std::vector<double> weights = {1.0, 2.0, 4.0, 1.0, 3.0, 2.0};
  const int s = 2;
  const Workload w = SmallWeighted(weights, 3, 11);
  FaultConfig fc;
  fc.seed = 77;
  fc.drop_prob = 0.15;
  fc.duplicate_prob = 0.10;
  fc.delay_prob = 0.15;
  fc.max_delay = 3;
  uint64_t faults_seen = 0;
  const auto result = testing::SworSetGoodnessOfFit(
      weights, s, 4000, [&](int t) {
        WsworConfig config;
        config.num_sites = 3;
        config.sample_size = s;
        config.seed = 50000 + static_cast<uint64_t>(t);
        FaultConfig trial_fc = fc;
        trial_fc.seed = 77 + static_cast<uint64_t>(t % 5);
        FaultyWswor run(config, trial_fc, Backend::kSim);
        run.Run(w);
        const RunReport report = run.report();
        EXPECT_TRUE(report.clean) << " trial " << t;
        const auto& counters = run.faulty_transport().counters();
        faults_seen += counters.dropped.load() + counters.delayed.load() +
                       counters.duplicated.load();
        return run.SampleIds();
      });
  EXPECT_GT(faults_seen, 1000u);  // the schedule actually bit
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(FaultDistributionTest, WsworExactOverSurvivorsUnderCrashRestart) {
  // Crash-only schedule: the set of items that reach a live site is a
  // pure function of (fault seed, workload), so across protocol seeds
  // the sample must be an exact SWOR over exactly those survivors.
  const std::vector<double> weights = {1.0, 2.0, 4.0, 1.0, 3.0, 2.0,
                                       5.0, 1.0, 2.0, 3.0};
  const Workload w = SmallWeighted(weights, 3, 19);
  FaultConfig fc;
  fc.seed = 47;  // chosen so the schedule loses 3 of the 10 items
  fc.crash_prob = 0.10;
  fc.crash_down_items = 2;
  const FaultSchedule schedule(fc);
  const std::vector<uint64_t> survivors =
      faults::SurvivingItemIds(w, schedule);
  ASSERT_LT(survivors.size(), weights.size());  // the schedule crashes
  ASSERT_GE(survivors.size(), 4u);
  std::map<uint64_t, uint64_t> survivor_index;
  std::vector<double> survivor_weights;
  for (uint64_t id : survivors) {
    survivor_index[id] = survivor_weights.size();
    survivor_weights.push_back(weights[id]);
  }
  const int s = 2;
  uint64_t crashes_seen = 0;
  const auto result = testing::SworSetGoodnessOfFit(
      survivor_weights, s, 4000, [&](int t) {
        WsworConfig config;
        config.num_sites = 3;
        config.sample_size = s;
        config.seed = 300000 + static_cast<uint64_t>(t);
        FaultyWswor run(config, fc, Backend::kSim);
        run.Run(w);
        const RunReport report = run.report();
        EXPECT_TRUE(report.clean) << " trial " << t;
        crashes_seen += report.crashes;
        std::vector<uint64_t> remapped;
        for (uint64_t id : run.SampleIds()) {
          auto it = survivor_index.find(id);
          // Sampling a dead site's lost item would be a silent wrong
          // answer — the exact failure mode this subsystem exists to
          // prevent.
          EXPECT_TRUE(it != survivor_index.end())
              << " sampled item " << id << " was lost in a crash";
          remapped.push_back(it->second);
        }
        return remapped;
      });
  EXPECT_GT(crashes_seen, 0u);
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(FaultDistributionTest, UnweightedExactUnderDrops) {
  const std::vector<double> weights(6, 1.0);
  const int s = 2;
  const Workload w = SmallWeighted(weights, 3, 13);
  const auto result = testing::SworSetGoodnessOfFit(
      weights, s, 3000, [&](int t) {
        UsworConfig config;
        config.num_sites = 3;
        config.sample_size = s;
        config.seed = 70000 + static_cast<uint64_t>(t);
        FaultConfig fc;
        fc.seed = 900 + static_cast<uint64_t>(t % 7);
        fc.drop_prob = 0.2;
        fc.delay_prob = 0.1;
        fc.max_delay = 2;
        FaultyUswor run(config, fc, Backend::kSim);
        run.Run(w);
        EXPECT_TRUE(run.report().clean) << " trial " << t;
        return run.SampleIds();
      });
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic;
}

TEST(FaultDistributionTest, L1EstimateAccurateUnderDropDuplicateDelay) {
  const int k = 4;
  const Workload w = SweepWorkload(k, 400, /*seed=*/37);
  L1TrackerConfig config;
  config.num_sites = k;
  config.eps = 0.25;
  config.delta = 0.15;
  const double true_weight = w.TotalWeight();
  std::vector<double> errors;
  for (uint64_t trial = 0; trial < 8; ++trial) {
    config.seed = 400 + trial;
    FaultConfig fc;
    fc.seed = 4000 + trial;
    fc.drop_prob = 0.15;
    fc.duplicate_prob = 0.10;
    fc.delay_prob = 0.10;
    fc.max_delay = 3;
    FaultyL1 run(config, fc, Backend::kSim);
    run.Run(w);
    ASSERT_TRUE(run.report().clean) << " trial " << trial;
    const double estimate =
        L1EstimateFromThreshold(config, run.coordinator().Threshold());
    errors.push_back(std::fabs(estimate - true_weight) / true_weight);
  }
  std::sort(errors.begin(), errors.end());
  EXPECT_LT(errors[errors.size() / 2], config.eps);    // median within eps
  EXPECT_LT(errors.back(), 2.5 * config.eps);          // all within margin
}

// ---------------------------------------------------------------------
// Never silently wrong: every run either reconstructs exactly-once
// delivery (clean) or reports which counters degraded it.

TEST(FaultRecoveryTest, CrashWithLossIsAlwaysDetectedNeverSilent) {
  const Workload w = SweepWorkload(4, 500, /*seed=*/43);
  const FaultSchedule probe(FaultConfig{});
  int clean_runs = 0, degraded_runs = 0, crashy_runs = 0;
  for (uint64_t fault_seed = 0; fault_seed < 30; ++fault_seed) {
    FaultConfig fc;
    fc.seed = fault_seed;
    fc.drop_prob = 0.15;
    fc.delay_prob = 0.10;
    fc.max_delay = 4;
    // A third of the schedules crash sites; with ~15% message drop a
    // crash almost always wipes in-flight data, so the sweep covers both
    // clean and detectably-degraded outcomes.
    fc.crash_prob = (fault_seed % 3 == 0) ? 0.02 : 0.0;
    fc.crash_down_items = 6;
    const WsworConfig config{.num_sites = 4, .sample_size = 8,
                             .seed = 7 + fault_seed};
    FaultyWswor run(config, fc, Backend::kSim);
    run.Run(w);
    const RunReport report = run.report();
    if (report.crashes > 0) ++crashy_runs;

    // The sample may never contain an item that only a dead site saw.
    const FaultSchedule schedule(fc);
    const std::vector<uint64_t> survivors =
        faults::SurvivingItemIds(w, schedule);
    const std::set<uint64_t> survivor_set(survivors.begin(), survivors.end());
    for (uint64_t id : run.SampleIds()) {
      EXPECT_TRUE(survivor_set.count(id) != 0)
          << " sampled crashed-away item " << id << " at fault seed "
          << fault_seed;
    }

    if (report.clean) {
      ++clean_runs;
      // Clean means every stamped message (hellos included) arrived, so
      // the coordinator saw every restart.
      uint64_t restarts = 0;
      for (int i = 0; i < run.num_sites(); ++i) {
        restarts += run.site_session(i).epoch();
      }
      EXPECT_EQ(report.crash_detections, restarts)
          << " at fault seed " << fault_seed;
    } else {
      ++degraded_runs;
      // Degradation is always attributable: a crash wiped in-flight data.
      EXPECT_GT(report.lost_unacked, 0u) << " at fault seed " << fault_seed;
      EXPECT_GT(report.crashes, 0u) << " at fault seed " << fault_seed;
    }
  }
  EXPECT_GT(crashy_runs, 5);
  EXPECT_GT(clean_runs, 0);
}

// ---------------------------------------------------------------------
// Process kills alongside the softer fault kinds: a 50-seed sweep in
// which shards are killed outright (recover-from-disk, durability/)
// next to sites crashing (resync-from-live-peers, this subsystem). The
// killed-and-recovered run must replay bit-identically on both
// execution backends for every seed, stay flagged-consistent, and — on
// the kill-only schedules — match the never-killed reference exactly.

FaultConfig KillSweepFaults(uint64_t fault_seed) {
  FaultConfig config;
  config.seed = fault_seed;
  config.process_kill_prob = 0.03;
  config.max_process_kills = 2;
  // Every third schedule also crashes sites, so kill→recover-from-disk
  // and crash→resync exercise the same run; the rest stay kill-only so
  // the sweep also pins exact equality with an uninterrupted run.
  config.crash_prob = (fault_seed % 3 == 0) ? 0.01 : 0.0;
  config.crash_down_items = 5;
  return config;
}

TEST(FaultSweepTest, KillAndRecoverReplaysBitIdenticallyAcross50Seeds) {
  const Workload w = SweepWorkload(3, 300, /*seed=*/23);
  const WsworConfig config{.num_sites = 3, .sample_size = 8, .seed = 77};
  const std::string root =
      ::testing::TempDir() + "dwrs_faults_kill_sweep";
  [[maybe_unused]] const int rc =
      std::system(("rm -rf '" + root + "'").c_str());
  ASSERT_TRUE(durability::EnsureDir(root));  // EnsureDir is single-level
  uint64_t killed_runs = 0;
  for (uint64_t fault_seed = 0; fault_seed < 50; ++fault_seed) {
    const FaultConfig fc = KillSweepFaults(fault_seed);
    durability::DurabilityOptions options;
    options.commit_interval_steps = 4;
    options.checkpoint_interval_steps = 32;

    options.dir = root + "/s" + std::to_string(fault_seed) + "-sim";
    durability::DurableWswor sim_run(config, fc, Backend::kSim, options);
    sim_run.Run(w);
    options.dir = root + "/s" + std::to_string(fault_seed) + "-eng";
    durability::DurableWswor eng_run(config, fc, Backend::kEngine, options);
    eng_run.Run(w);

    // Cross-backend bit identity of the killed-and-recovered runs.
    EXPECT_EQ(sim_run.Probe(), eng_run.Probe())
        << "fault seed " << fault_seed;
    const RunReport sim_report = sim_run.report();
    const RunReport eng_report = eng_run.report();
    EXPECT_EQ(sim_report.transcript_hash, eng_report.transcript_hash)
        << "fault seed " << fault_seed;
    EXPECT_EQ(sim_report.process_kills, eng_report.process_kills)
        << "fault seed " << fault_seed;
    EXPECT_EQ(sim_report.crashes, eng_report.crashes)
        << "fault seed " << fault_seed;

    // Recovery is never silently wrong: the replay cross-check holds on
    // every seed, and kill bookkeeping is coherent.
    EXPECT_TRUE(sim_report.recovery_consistent) << "seed " << fault_seed;
    EXPECT_TRUE(eng_report.recovery_consistent) << "seed " << fault_seed;
    // A kill that lands before anything is durable re-runs from genesis
    // rather than recovering, so recoveries can trail kills — but never
    // exceed them, and both backends must agree.
    EXPECT_LE(sim_report.recoveries, sim_report.process_kills);
    EXPECT_EQ(sim_report.recoveries, eng_report.recoveries)
        << "fault seed " << fault_seed;
    killed_runs += sim_report.process_kills > 0 ? 1 : 0;

    if (fc.crash_prob == 0.0) {
      // Kill-only: recover-from-disk must be invisible in the final
      // state — identical to a run that was never killed.
      FaultConfig none;
      none.seed = fault_seed;
      FaultyWswor reference(config, none, Backend::kSim);
      reference.Run(w);
      EXPECT_EQ(sim_run.SampleIds(), reference.SampleIds())
          << "fault seed " << fault_seed;
      EXPECT_EQ(sim_report.transcript_hash,
                reference.report().transcript_hash)
          << "fault seed " << fault_seed;
      EXPECT_TRUE(sim_report.clean) << "fault seed " << fault_seed;
    }
  }
  // The sweep must actually exercise the kill path, not skate past it.
  EXPECT_GT(killed_runs, 25u);
  [[maybe_unused]] const int rc2 =
      std::system(("rm -rf '" + root + "'").c_str());
}

TEST(FaultRecoveryTest, RestartedSiteIsResynced) {
  // A long-ish stream with crashes after the threshold is announced: the
  // coordinator must replay filter state to reborn sites.
  const Workload w = SweepWorkload(4, 800, /*seed=*/53);
  FaultConfig fc;
  fc.seed = 6;
  fc.crash_prob = 0.01;
  fc.crash_down_items = 4;
  const WsworConfig config{.num_sites = 4, .sample_size = 8, .seed = 3};
  FaultyWswor run(config, fc, Backend::kSim);
  run.Run(w);
  const RunReport report = run.report();
  ASSERT_GT(report.crashes, 0u);
  EXPECT_GT(report.crash_detections, 0u);
  EXPECT_GT(report.resyncs_sent, 0u);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(run.SampleIds().size(), 8u);
}

}  // namespace
}  // namespace dwrs
