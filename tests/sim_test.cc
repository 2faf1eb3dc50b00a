#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "sim/network.h"
#include "sim/runtime.h"

namespace dwrs {
namespace {

using sim::Network;
using sim::Payload;

Payload Msg(uint32_t type, uint64_t a = 0, uint32_t words = 2) {
  Payload p;
  p.type = type;
  p.a = a;
  p.words = words;
  return p;
}

TEST(NetworkTest, CountsMessagesAndWords) {
  Network net(3);
  net.SendToCoordinator(0, Msg(1, 0, 3));
  net.SendToCoordinator(1, Msg(1, 0, 3));
  net.SendToSite(2, Msg(2, 0, 2));
  EXPECT_EQ(net.stats().site_to_coord, 2u);
  EXPECT_EQ(net.stats().coord_to_site, 1u);
  EXPECT_EQ(net.stats().words, 8u);
  EXPECT_EQ(net.stats().total_messages(), 3u);
  EXPECT_EQ(net.stats().by_type[1], 2u);
  EXPECT_EQ(net.stats().by_type[2], 1u);
}

TEST(NetworkTest, BroadcastCountsKMessages) {
  Network net(5);
  net.Broadcast(Msg(3));
  EXPECT_EQ(net.stats().coord_to_site, 5u);
  EXPECT_EQ(net.stats().broadcast_events, 1u);
}

TEST(NetworkTest, FifoPerChannelAndGlobalOrder) {
  Network net(2);
  net.SendToCoordinator(0, Msg(1, 100));
  net.SendToCoordinator(1, Msg(1, 200));
  net.SendToCoordinator(0, Msg(1, 101));
  std::vector<uint64_t> order;
  Network::Delivery d;
  while (net.PopDue(&d)) order.push_back(d.msg.a);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 100u);
  EXPECT_EQ(order[1], 200u);
  EXPECT_EQ(order[2], 101u);
}

TEST(NetworkTest, DeliveryDelayHoldsMessages) {
  Network net(1, /*delivery_delay=*/2);
  net.SendToCoordinator(0, Msg(1, 7));
  Network::Delivery d;
  EXPECT_FALSE(net.PopDue(&d));
  net.AdvanceStep();
  EXPECT_FALSE(net.PopDue(&d));
  net.AdvanceStep();
  EXPECT_TRUE(net.PopDue(&d));
  EXPECT_EQ(d.msg.a, 7u);
}

TEST(NetworkTest, ForcedPopIgnoresDelay) {
  Network net(1, /*delivery_delay=*/100);
  net.SendToSite(0, Msg(2, 9));
  Network::Delivery d;
  EXPECT_FALSE(net.PopDue(&d));
  EXPECT_TRUE(net.PopDue(&d, /*force=*/true));
  EXPECT_EQ(d.msg.a, 9u);
  EXPECT_FALSE(net.HasPending());
}

// A toy protocol: sites forward every item id; the coordinator echoes
// every 3rd message back to the sender; sites count echoes.
class EchoSite : public sim::SiteNode {
 public:
  EchoSite(int index, Network* net) : index_(index), net_(net) {}

  void OnItem(const Item& item) override {
    net_->SendToCoordinator(index_, Msg(1, item.id));
  }
  void OnMessage(const Payload& msg) override {
    EXPECT_EQ(msg.type, 2u);
    ++echoes_;
  }

  int echoes() const { return echoes_; }

 private:
  int index_;
  Network* net_;
  int echoes_ = 0;
};

class EchoCoordinator : public sim::CoordinatorNode {
 public:
  explicit EchoCoordinator(Network* net) : net_(net) {}

  void OnMessage(int site, const Payload& msg) override {
    EXPECT_EQ(msg.type, 1u);
    ++received_;
    if (received_ % 3 == 0) net_->SendToSite(site, Msg(2, msg.a));
  }

  int received() const { return received_; }

 private:
  Network* net_;
  int received_ = 0;
};

TEST(RuntimeTest, DrivesWorkloadThroughProtocol) {
  const Workload workload = WorkloadBuilder().num_sites(3).num_items(9).Build();
  sim::Runtime runtime(3);
  std::vector<std::unique_ptr<EchoSite>> sites;
  for (int i = 0; i < 3; ++i) {
    sites.push_back(std::make_unique<EchoSite>(i, &runtime.network()));
    runtime.AttachSite(i, sites[i].get());
  }
  EchoCoordinator coordinator(&runtime.network());
  runtime.AttachCoordinator(&coordinator);

  uint64_t steps_seen = 0;
  runtime.Run(workload, [&](uint64_t step) {
    EXPECT_EQ(step, steps_seen + 1);
    ++steps_seen;
  });
  EXPECT_EQ(steps_seen, 9u);
  EXPECT_EQ(coordinator.received(), 9);
  int echoes = 0;
  for (const auto& s : sites) echoes += s->echoes();
  EXPECT_EQ(echoes, 3);  // every 3rd of 9
  EXPECT_EQ(runtime.stats().site_to_coord, 9u);
  EXPECT_EQ(runtime.stats().coord_to_site, 3u);
}

TEST(RuntimeTest, DelayedDeliveryNeedsFlush) {
  const Workload workload = WorkloadBuilder().num_sites(2).num_items(4).Build();
  sim::Runtime runtime(2, /*delivery_delay=*/10);
  std::vector<std::unique_ptr<EchoSite>> sites;
  for (int i = 0; i < 2; ++i) {
    sites.push_back(std::make_unique<EchoSite>(i, &runtime.network()));
    runtime.AttachSite(i, sites[i].get());
  }
  EchoCoordinator coordinator(&runtime.network());
  runtime.AttachCoordinator(&coordinator);
  runtime.Run(workload);
  // Messages still in flight: the coordinator saw nothing yet.
  EXPECT_EQ(coordinator.received(), 0);
  runtime.Flush();
  EXPECT_EQ(coordinator.received(), 4);
}

TEST(NetworkTest, JitterPreservesPerChannelFifo) {
  Network net(2, /*delivery_delay=*/5, /*jitter_seed=*/99);
  for (uint64_t i = 0; i < 50; ++i) {
    net.SendToCoordinator(0, Msg(1, i));
    net.SendToCoordinator(1, Msg(1, 1000 + i));
    net.AdvanceStep();
  }
  for (int i = 0; i < 10; ++i) net.AdvanceStep();
  uint64_t last0 = 0, last1 = 0;
  bool first0 = true, first1 = true;
  Network::Delivery d;
  int delivered = 0;
  while (net.PopDue(&d)) {
    ++delivered;
    if (d.msg.a < 1000) {
      if (!first0) {
        EXPECT_GT(d.msg.a, last0);
      }
      last0 = d.msg.a;
      first0 = false;
    } else {
      if (!first1) {
        EXPECT_GT(d.msg.a, last1);
      }
      last1 = d.msg.a;
      first1 = false;
    }
  }
  EXPECT_EQ(delivered, 100);
}

TEST(NetworkTest, JitterVariesDelays) {
  Network net(1, /*delivery_delay=*/8, /*jitter_seed=*/5);
  // Space the sends out so the FIFO floor does not flatten the jitter.
  std::set<uint64_t> latencies;
  for (int i = 0; i < 30; ++i) {
    net.SendToCoordinator(0, Msg(1, static_cast<uint64_t>(i)));
    const uint64_t sent_at = net.step();
    Network::Delivery d;
    uint64_t waited = 0;
    while (!net.PopDue(&d)) {
      net.AdvanceStep();
      ++waited;
      ASSERT_LT(waited, 20u);
    }
    latencies.insert(net.step() - sent_at);
  }
  EXPECT_GT(latencies.size(), 2u) << "jitter should vary the delay";
}

TEST(RuntimeTest, StatsStringIsReadable) {
  Network net(2);
  net.SendToCoordinator(0, Msg(1));
  const std::string s = net.stats().ToString();
  EXPECT_NE(s.find("messages=1"), std::string::npos);
}

}  // namespace
}  // namespace dwrs
