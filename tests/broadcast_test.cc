// Tests for the sequencer-based total-order broadcast: agreement, total
// order, loss recovery, and sequencer crash takeover.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/broadcast/total_order.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/util/bytes.h"

namespace sdr {
namespace {

// A master-like node whose only job is to participate in the broadcast.
class MemberNode : public Node {
 public:
  void Init(TotalOrderBroadcast::Config config) {
    bcast_ = std::make_unique<TotalOrderBroadcast>(
        env(), this, std::move(config),
        [this](NodeId to, const Bytes& payload) {
          ++sent;
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

  TotalOrderBroadcast& bcast() { return *bcast_; }
  std::vector<Delivery> delivered;
  size_t sent = 0;

 private:
  std::unique_ptr<TotalOrderBroadcast> bcast_;
};

struct Harness {
  Harness(int n, uint64_t seed, LinkModel link) : sim(seed), net(&sim, link) {
    for (int i = 0; i < n; ++i) {
      members.push_back(std::make_unique<MemberNode>());
      net.AddNode(members.back().get());
    }
    TotalOrderBroadcast::Config config;
    for (const auto& m : members) {
      config.group.push_back(m->id());
    }
    for (auto& m : members) {
      m->Init(config);
    }
    net.StartAll();
  }

  // All live members delivered the same sequence of (origin, payload)?
  bool AllAgree(size_t expected_count) const {
    const auto& ref = members[0]->delivered;
    for (const auto& m : members) {
      if (!m->up()) {
        continue;
      }
      if (m->delivered.size() != expected_count) {
        return false;
      }
    }
    for (const auto& m : members) {
      if (!m->up() || m.get() == members[0].get()) {
        continue;
      }
      for (size_t i = 0; i < expected_count; ++i) {
        if (m->delivered[i].seq != ref[i].seq ||
            m->delivered[i].origin != ref[i].origin ||
            m->delivered[i].payload != ref[i].payload) {
          return false;
        }
      }
    }
    return true;
  }

  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<MemberNode>> members;
};

TEST(BroadcastTest, SingleMessageReachesAllInOrder) {
  Harness h(3, 1, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.0});
  h.members[1]->bcast().Broadcast(ToBytes("w1"));
  h.sim.RunUntil(2 * kSecond);
  for (const auto& m : h.members) {
    ASSERT_EQ(m->delivered.size(), 1u);
    EXPECT_EQ(m->delivered[0].seq, 1u);
    EXPECT_EQ(ToString(m->delivered[0].payload), "w1");
    EXPECT_EQ(m->delivered[0].origin, h.members[1]->id());
  }
}

TEST(BroadcastTest, ConcurrentSubmissionsTotallyOrdered) {
  Harness h(4, 2, LinkModel{10 * kMillisecond, 8 * kMillisecond, 0.0});
  for (int round = 0; round < 5; ++round) {
    for (auto& m : h.members) {
      m->bcast().Broadcast(
          ToBytes(std::string("m").append(std::to_string(round))));
    }
  }
  h.sim.RunUntil(5 * kSecond);
  EXPECT_TRUE(h.AllAgree(20));
  // Sequence numbers are dense 1..20.
  for (size_t i = 0; i < h.members[0]->delivered.size(); ++i) {
    EXPECT_EQ(h.members[0]->delivered[i].seq, i + 1);
  }
}

TEST(BroadcastTest, SurvivesMessageLoss) {
  Harness h(3, 3, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.25});
  for (int i = 0; i < 10; ++i) {
    h.members[i % 3]->bcast().Broadcast(ToBytes("op" + std::to_string(i)));
  }
  h.sim.RunUntil(30 * kSecond);
  EXPECT_TRUE(h.AllAgree(10));
}

// A member that misses a message while holding later ones has a hole below
// the highest sequence number it knows. Once the stream goes quiet no
// arrival re-asks for it, so the sequencer's heartbeats must. The sweep
// covers enough loss patterns to lose a gap nack or its retransmission.
TEST(BroadcastTest, HeartbeatsRecoverHolesAcrossLossSeeds) {
  std::vector<uint64_t> stalled;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Harness h(3, seed, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.25});
    for (int i = 0; i < 10; ++i) {
      h.members[i % 3]->bcast().Broadcast(ToBytes("op" + std::to_string(i)));
    }
    h.sim.RunUntil(30 * kSecond);
    if (!h.AllAgree(10)) {
      stalled.push_back(seed);
    }
  }
  EXPECT_TRUE(stalled.empty()) << stalled.size() << " seeds stalled, first "
                               << stalled.front();
}

TEST(BroadcastTest, NoDuplicateDeliveryUnderRetransmission) {
  Harness h(3, 4, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.3});
  h.members[2]->bcast().Broadcast(ToBytes("once"));
  h.sim.RunUntil(20 * kSecond);
  for (const auto& m : h.members) {
    ASSERT_EQ(m->delivered.size(), 1u) << "node " << m->id();
  }
}

TEST(BroadcastTest, SequencerCrashTriggersTakeover) {
  Harness h(3, 5, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.0});
  h.members[0]->bcast().Broadcast(ToBytes("before-crash"));
  h.sim.RunUntil(1 * kSecond);

  // Epoch 0 sequencer is members[0]; crash it.
  ASSERT_TRUE(h.members[0]->bcast().IsSequencer());
  h.net.SetNodeUp(h.members[0]->id(), false);

  h.sim.RunUntil(5 * kSecond);
  // Survivors should have rotated to a new sequencer.
  EXPECT_GT(h.members[1]->bcast().epoch(), 0u);
  NodeId new_seq = h.members[1]->bcast().sequencer();
  EXPECT_NE(new_seq, h.members[0]->id());

  // New submissions still get ordered and delivered to survivors.
  h.members[2]->bcast().Broadcast(ToBytes("after-crash"));
  h.sim.RunUntil(10 * kSecond);
  ASSERT_EQ(h.members[1]->delivered.size(), 2u);
  ASSERT_EQ(h.members[2]->delivered.size(), 2u);
  EXPECT_EQ(ToString(h.members[1]->delivered[1].payload), "after-crash");
  // Sequence numbering continues above the pre-crash message.
  EXPECT_EQ(h.members[1]->delivered[1].seq, 2u);
}

TEST(BroadcastTest, MessagePendingAtCrashIsNotLostBySurvivingOrigin) {
  Harness h(3, 6, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.0});
  // Crash the sequencer immediately, then submit from a survivor: the
  // submission must be re-routed to the new sequencer by retransmission.
  h.net.SetNodeUp(h.members[0]->id(), false);
  h.members[1]->bcast().Broadcast(ToBytes("persistent"));
  h.sim.RunUntil(10 * kSecond);
  ASSERT_GE(h.members[1]->delivered.size(), 1u);
  EXPECT_EQ(ToString(h.members[1]->delivered[0].payload), "persistent");
  ASSERT_GE(h.members[2]->delivered.size(), 1u);
  EXPECT_EQ(h.members[1]->bcast().pending_submissions(), 0u);
}

TEST(BroadcastTest, MessagesWithATrailingByteAreDropped) {
  // Each message below would change the sequencer's state or make it send
  // (a delivery, a new epoch, a reply); with one byte more than its field
  // list it must do neither.
  Harness h(3, 12, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.0});
  h.members[1]->bcast().Broadcast(ToBytes("w1"));
  h.sim.RunUntil(1 * kSecond);
  using B = TotalOrderBroadcast;
  MemberNode& sequencer = *h.members[0];
  ASSERT_TRUE(sequencer.bcast().IsSequencer());
  ASSERT_EQ(sequencer.bcast().delivered_seq(), 1u);
  const NodeId peer = h.members[1]->id();
  const Bytes frames[] = {
      WireEncodeTagged(B::kSubmit, B::Submit{0, peer, 9, ToBytes("x")}),
      WireEncodeTagged(B::kOrdered, B::Ordered{0, 2, peer, 9, ToBytes("x")}),
      WireEncodeTagged(B::kNack, B::Nack{0, 1}),
      WireEncodeTagged(B::kHeartbeat, B::Heartbeat{0, 9}),
      WireEncodeTagged(B::kNewEpoch, B::NewEpoch{1}),
      WireEncodeTagged(B::kSyncInfo, B::SyncInfo{0, 9}),
  };
  for (Bytes frame : frames) {
    SCOPED_TRACE(int(frame[0]));
    frame.push_back(0);
    const size_t sent = sequencer.sent;
    sequencer.bcast().OnMessage(peer, frame);
    EXPECT_EQ(sequencer.bcast().epoch(), 0u);
    EXPECT_EQ(sequencer.bcast().delivered_seq(), 1u);
    EXPECT_EQ(sequencer.sent, sent);
  }
  // Without the extra byte the first of them is ordered and delivered.
  sequencer.bcast().OnMessage(peer, frames[0]);
  EXPECT_EQ(sequencer.bcast().delivered_seq(), 2u);
}

TEST(BroadcastTest, DeterministicUnderSeed) {
  auto run = [](uint64_t seed) {
    Harness h(4, seed, LinkModel{8 * kMillisecond, 5 * kMillisecond, 0.1});
    for (int i = 0; i < 8; ++i) {
      h.members[i % 4]->bcast().Broadcast(
          ToBytes(std::string("x").append(std::to_string(i))));
    }
    h.sim.RunUntil(20 * kSecond);
    std::string transcript;
    for (const auto& d : h.members[0]->delivered) {
      transcript += std::to_string(d.seq) + ":" + ToString(d.payload) + ";";
    }
    return transcript;
  };
  EXPECT_EQ(run(9), run(9));
}

TEST(BroadcastTest, PartitionHealsAndMembersCatchUp) {
  Harness h(3, 11, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.0});
  // Cut member 2 off from everyone; the rest keep ordering messages.
  h.net.SetPartitioned(h.members[2]->id(), h.members[0]->id(), true);
  h.net.SetPartitioned(h.members[2]->id(), h.members[1]->id(), true);
  for (int i = 0; i < 4; ++i) {
    h.members[0]->bcast().Broadcast(ToBytes("during" + std::to_string(i)));
  }
  h.sim.RunUntil(5 * kSecond);
  EXPECT_EQ(h.members[0]->delivered.size(), 4u);
  EXPECT_TRUE(h.members[2]->delivered.empty());

  // Heal: the isolated member NACKs its gap (triggered by heartbeats) and
  // catches up with the exact same sequence.
  h.net.SetPartitioned(h.members[2]->id(), h.members[0]->id(), false);
  h.net.SetPartitioned(h.members[2]->id(), h.members[1]->id(), false);
  h.sim.RunUntil(20 * kSecond);
  ASSERT_EQ(h.members[2]->delivered.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.members[2]->delivered[i].payload,
              h.members[0]->delivered[i].payload)
        << i;
  }

  // The isolated member advanced its epoch while cut off but (lacking a
  // majority) must never have finished a self-election that would clash
  // with the majority's sequence numbers: new broadcasts still agree.
  h.members[1]->bcast().Broadcast(ToBytes("after-heal"));
  h.sim.RunUntil(40 * kSecond);
  for (const auto& m : h.members) {
    ASSERT_EQ(m->delivered.size(), 5u) << m->id();
    EXPECT_EQ(ToString(m->delivered[4].payload), "after-heal") << m->id();
    EXPECT_EQ(m->delivered[4].seq, 5u) << m->id();
  }
}

}  // namespace
}  // namespace sdr
