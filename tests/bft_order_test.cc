// Tests for the simplified PBFT-style broadcast used by the lazy-vs-eager
// ablation (E11).
#include <gtest/gtest.h>

#include <memory>

#include "bench/baselines/bft_order.h"
#include "src/sim/network.h"

namespace sdr {
namespace {

class BftMember : public Node {
 public:
  void Init(BftOrderBroadcast::Config config) {
    bcast_ = std::make_unique<BftOrderBroadcast>(
        env(), this, std::move(config),
        [this](NodeId to, const Bytes& payload) {
          env()->Send(to, payload);
        },
        [this](uint64_t seq, NodeId origin, const Bytes& payload) {
          delivered.push_back({seq, origin, payload});
        });
  }
  void Start() override { bcast_->Start(); }
  void HandleMessage(NodeId from, const Payload& payload) override {
    bcast_->OnMessage(from, payload);
  }

  struct Delivery {
    uint64_t seq;
    NodeId origin;
    Bytes payload;
  };
  BftOrderBroadcast& bcast() { return *bcast_; }
  std::vector<Delivery> delivered;

 private:
  std::unique_ptr<BftOrderBroadcast> bcast_;
};

struct BftHarness {
  BftHarness(int n, uint64_t seed, LinkModel link)
      : sim(seed), net(&sim, link) {
    for (int i = 0; i < n; ++i) {
      members.push_back(std::make_unique<BftMember>());
      net.AddNode(members.back().get());
    }
    BftOrderBroadcast::Config config;
    for (const auto& m : members) {
      config.group.push_back(m->id());
    }
    for (auto& m : members) {
      m->Init(config);
    }
    net.StartAll();
  }
  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<BftMember>> members;
};

TEST(BftOrderTest, QuorumParameters) {
  BftHarness h(4, 1, LinkModel::Lan());
  EXPECT_EQ(h.members[0]->bcast().f(), 1);
  EXPECT_EQ(h.members[0]->bcast().quorum(), 3);
  BftHarness h7(7, 1, LinkModel::Lan());
  EXPECT_EQ(h7.members[0]->bcast().f(), 2);
  EXPECT_EQ(h7.members[0]->bcast().quorum(), 5);
}

TEST(BftOrderTest, DeliversToAllInOrder) {
  BftHarness h(4, 2, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.0});
  h.members[1]->bcast().Broadcast(ToBytes("a"));
  h.members[3]->bcast().Broadcast(ToBytes("b"));
  h.sim.RunUntil(5 * kSecond);
  for (const auto& m : h.members) {
    ASSERT_EQ(m->delivered.size(), 2u) << m->id();
    EXPECT_EQ(m->delivered[0].seq, 1u);
    EXPECT_EQ(m->delivered[1].seq, 2u);
  }
  // Same order everywhere.
  for (const auto& m : h.members) {
    EXPECT_EQ(m->delivered[0].payload, h.members[0]->delivered[0].payload);
    EXPECT_EQ(m->delivered[1].payload, h.members[0]->delivered[1].payload);
  }
}

TEST(BftOrderTest, ToleratesFCrashedReplicas) {
  BftHarness h(4, 3, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.0});
  // Crash one non-primary replica (f = 1): the quorum of 3 still commits.
  h.net.SetNodeUp(h.members[3]->id(), false);
  h.members[1]->bcast().Broadcast(ToBytes("survives"));
  h.sim.RunUntil(5 * kSecond);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(h.members[i]->delivered.size(), 1u) << i;
    EXPECT_EQ(ToString(h.members[i]->delivered[0].payload), "survives");
  }
}

TEST(BftOrderTest, SurvivesMessageLossViaRetransmission) {
  BftHarness h(4, 4, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.15});
  for (int i = 0; i < 5; ++i) {
    h.members[i % 4]->bcast().Broadcast(
        ToBytes(std::string("m").append(std::to_string(i))));
  }
  h.sim.RunUntil(60 * kSecond);
  // The request retransmission recovers lost requests/pre-prepares for the
  // common case; all live members should converge on the same deliveries.
  size_t count = h.members[0]->delivered.size();
  EXPECT_GE(count, 4u);
  for (const auto& m : h.members) {
    EXPECT_EQ(m->delivered.size(), count) << m->id();
  }
}

TEST(BftOrderTest, QuadraticMessageComplexity) {
  // The paper's argument: agreement including untrusted replicas costs
  // O(n^2) messages per write. Measure messages per delivered payload.
  auto messages_per_write = [](int n) {
    BftHarness h(n, 5, LinkModel{5 * kMillisecond, 0, 0.0});
    const int kWrites = 10;
    for (int i = 0; i < kWrites; ++i) {
      h.members[1]->bcast().Broadcast(
          ToBytes(std::string("w").append(std::to_string(i))));
    }
    h.sim.RunUntil(30 * kSecond);
    uint64_t total = 0;
    for (const auto& m : h.members) {
      EXPECT_EQ(m->delivered.size(), static_cast<size_t>(kWrites));
      total += m->bcast().protocol_messages_sent();
    }
    return static_cast<double>(total) / kWrites;
  };
  double at4 = messages_per_write(4);
  double at8 = messages_per_write(8);
  double at16 = messages_per_write(16);
  // Quadratic growth: doubling n should roughly quadruple messages.
  EXPECT_GT(at8 / at4, 2.5);
  EXPECT_GT(at16 / at8, 2.5);
}

TEST(BftOrderTest, DuplicateRequestsAssignedOneSequence) {
  BftHarness h(4, 6, LinkModel{50 * kMillisecond, 30 * kMillisecond, 0.3});
  h.members[2]->bcast().Broadcast(ToBytes("only-once"));
  h.sim.RunUntil(60 * kSecond);
  for (const auto& m : h.members) {
    ASSERT_EQ(m->delivered.size(), 1u) << m->id();
  }
}

}  // namespace
}  // namespace sdr
