// Tests for the discrete-event simulator, network model and authenticated
// channel handshake.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/channel.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace sdr {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, TiesBreakByScheduleOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(10, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim(1);
  int fired = 0;
  sim.ScheduleAt(100, [&] { ++fired; });
  sim.ScheduleAt(200, [&] { ++fired; });
  sim.RunUntil(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 150);
  sim.RunUntil(250);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ScheduledInPastRunsNow) {
  Simulator sim(1);
  sim.RunUntil(100);
  int fired = 0;
  sim.ScheduleAt(50, [&] { ++fired; });
  sim.Step();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 100);  // clock must not go backwards
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim(1);
  int fired = 0;
  EventId id = sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  sim.Cancel(id);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, DoubleCancelKeepsPendingCountCorrect) {
  // Regression: the lazy-cancel queue counted every Cancel call against the
  // pending total, so cancelling the same id twice underflowed it.
  Simulator sim(1);
  int fired = 0;
  EventId a = sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Cancel(a);  // second cancel of the same id must be a no-op
  sim.Cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, StaleCancelDoesNotHitSlotReuse) {
  // After an event fires, its id is dead; a later Cancel with that id must
  // not cancel whatever event now occupies the recycled slot.
  Simulator sim(1);
  int fired = 0;
  EventId a = sim.ScheduleAt(10, [&] { ++fired; });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EventId b = sim.ScheduleAt(20, [&] { ++fired; });
  EXPECT_NE(a, b);
  sim.Cancel(a);  // stale id; b likely reuses a's slot
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StressMatchesReferenceModel) {
  // Randomized schedule/cancel/fire interleavings against a brute-force
  // reference: pending events as a plain vector, fire order = min by
  // (time, schedule seq). The indexed heap must agree on every firing and
  // on the pending count after every operation.
  Simulator sim(7);
  Rng rng(20260806);
  struct RefEvent {
    SimTime time;
    uint64_t seq;
    int tag;
    EventId id;
  };
  std::vector<RefEvent> ref;  // reference pending set
  std::vector<int> fired_real;
  std::vector<int> fired_ref;
  uint64_t next_seq = 0;

  auto ref_fire_one = [&] {
    size_t best = 0;
    for (size_t i = 1; i < ref.size(); ++i) {
      if (ref[i].time < ref[best].time ||
          (ref[i].time == ref[best].time && ref[i].seq < ref[best].seq)) {
        best = i;
      }
    }
    fired_ref.push_back(ref[best].tag);
    ref.erase(ref.begin() + static_cast<long>(best));
  };

  for (int op = 0; op < 4000; ++op) {
    uint64_t pick = rng.NextBounded(100);
    if (pick < 55 || ref.empty()) {
      SimTime t = sim.Now() + static_cast<SimTime>(rng.NextBounded(500));
      int tag = op;
      EventId id = sim.ScheduleAt(t, [&fired_real, tag] {
        fired_real.push_back(tag);
      });
      ref.push_back(RefEvent{std::max(t, sim.Now()), next_seq++, tag, id});
    } else if (pick < 80) {
      size_t i = rng.NextBounded(ref.size());
      sim.Cancel(ref[i].id);
      if (rng.NextBool(0.25)) {
        sim.Cancel(ref[i].id);  // double-cancel must stay a no-op
      }
      ref.erase(ref.begin() + static_cast<long>(i));
    } else {
      size_t steps = 1 + rng.NextBounded(3);
      for (size_t s = 0; s < steps && !ref.empty(); ++s) {
        ref_fire_one();
        sim.Step();
      }
    }
    ASSERT_EQ(sim.pending_events(), ref.size());
  }
  while (!ref.empty()) {
    ref_fire_one();
    sim.Step();
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(fired_real, fired_ref);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim(1);
  int chain = 0;
  std::function<void()> tick = [&] {
    if (++chain < 5) {
      sim.ScheduleAfter(10, tick);
    }
  };
  sim.ScheduleAfter(10, tick);
  sim.RunUntilIdle();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.Now(), 50);
}

// A node that records everything it receives.
class EchoNode : public Node {
 public:
  void HandleMessage(NodeId from, const Payload& payload) override {
    received.emplace_back(from, payload.ToBytes());
  }
  std::vector<std::pair<NodeId, Bytes>> received;
};

TEST(NetworkTest, DeliversWithLatency) {
  Simulator sim(1);
  Network net(&sim, LinkModel{10 * kMillisecond, 0, 0.0});
  EchoNode a, b;
  NodeId ida = net.AddNode(&a);
  NodeId idb = net.AddNode(&b);
  net.Send(ida, idb, ToBytes("hi"));
  sim.RunUntil(9 * kMillisecond);
  EXPECT_TRUE(b.received.empty());
  sim.RunUntil(10 * kMillisecond);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, ida);
  EXPECT_EQ(ToString(b.received[0].second), "hi");
}

TEST(NetworkTest, DownReceiverDropsInFlight) {
  Simulator sim(1);
  Network net(&sim, LinkModel{10 * kMillisecond, 0, 0.0});
  EchoNode a, b;
  NodeId ida = net.AddNode(&a);
  NodeId idb = net.AddNode(&b);
  net.Send(ida, idb, ToBytes("x"));
  net.SetNodeUp(idb, false);
  sim.RunUntilIdle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.messages_dropped(), 1u);

  // After restart, new messages flow again.
  net.SetNodeUp(idb, true);
  net.Send(ida, idb, ToBytes("y"));
  sim.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, CrashMidFlightDropsOnlyUndeliveredMessages) {
  // Two messages race toward a node that crashes between their arrivals:
  // the one that lands before the crash is delivered, the one still in
  // flight at crash time is dropped at delivery time.
  Simulator sim(1);
  Network net(&sim, LinkModel{10 * kMillisecond, 0, 0.0});
  EchoNode a, b;
  NodeId ida = net.AddNode(&a);
  NodeId idb = net.AddNode(&b);
  net.Send(ida, idb, ToBytes("early"));
  sim.RunUntil(5 * kMillisecond);
  net.Send(ida, idb, ToBytes("late"));  // would land at t=15ms
  sim.RunUntil(12 * kMillisecond);      // "early" has landed
  net.SetNodeUp(idb, false);
  sim.RunUntilIdle();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(ToString(b.received[0].second), "early");
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(NetworkTest, DownSenderDropsAtSendTime) {
  Simulator sim(1);
  Network net(&sim, LinkModel{1 * kMillisecond, 0, 0.0});
  EchoNode a, b;
  NodeId ida = net.AddNode(&a);
  NodeId idb = net.AddNode(&b);
  net.SetNodeUp(ida, false);
  net.Send(ida, idb, ToBytes("from the grave"));
  sim.RunUntilIdle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.messages_sent(), 1u);  // counted as sent, then dropped
}

TEST(NetworkTest, PartitionBlocksBothDirections) {
  Simulator sim(1);
  Network net(&sim, LinkModel{1 * kMillisecond, 0, 0.0});
  EchoNode a, b;
  NodeId ida = net.AddNode(&a);
  NodeId idb = net.AddNode(&b);
  net.SetPartitioned(ida, idb, true);
  net.Send(ida, idb, ToBytes("x"));
  net.Send(idb, ida, ToBytes("y"));
  sim.RunUntilIdle();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());

  net.SetPartitioned(ida, idb, false);
  net.Send(ida, idb, ToBytes("z"));
  sim.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, PartitionCheckedAtSendTimeNotDelivery) {
  // Partitions drop traffic when it is *sent*, not when it would land: a
  // message already in flight when the partition starts is still
  // delivered (it is on the wire), and healing does not resurrect
  // messages sent during the partition.
  Simulator sim(1);
  Network net(&sim, LinkModel{10 * kMillisecond, 0, 0.0});
  EchoNode a, b;
  NodeId ida = net.AddNode(&a);
  NodeId idb = net.AddNode(&b);
  net.Send(ida, idb, ToBytes("in flight"));
  sim.RunUntil(5 * kMillisecond);
  net.SetPartitioned(ida, idb, true);
  net.Send(ida, idb, ToBytes("lost"));
  sim.RunUntilIdle();
  ASSERT_EQ(b.received.size(), 1u);  // the in-flight message survived
  EXPECT_EQ(ToString(b.received[0].second), "in flight");
  EXPECT_EQ(net.messages_dropped(), 1u);

  net.SetPartitioned(ida, idb, false);
  sim.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 1u);  // "lost" stays lost after healing
}

TEST(NetworkTest, PartitionThenHealPreservesSendOrder) {
  Simulator sim(1);
  Network net(&sim, LinkModel{10 * kMillisecond, 0, 0.0});
  EchoNode a, b;
  NodeId ida = net.AddNode(&a);
  NodeId idb = net.AddNode(&b);
  net.Send(ida, idb, ToBytes("1"));
  net.SetPartitioned(ida, idb, true);
  net.Send(ida, idb, ToBytes("dropped"));
  net.SetPartitioned(ida, idb, false);
  net.Send(ida, idb, ToBytes("2"));
  sim.RunUntilIdle();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(ToString(b.received[0].second), "1");
  EXPECT_EQ(ToString(b.received[1].second), "2");
}

TEST(NetworkTest, ClearPartitionsHealsEverything) {
  Simulator sim(1);
  Network net(&sim, LinkModel{1 * kMillisecond, 0, 0.0});
  EchoNode a, b, c;
  NodeId ida = net.AddNode(&a);
  NodeId idb = net.AddNode(&b);
  NodeId idc = net.AddNode(&c);
  net.SetPartitioned(ida, idb, true);
  net.SetPartitioned(ida, idc, true);
  EXPECT_EQ(net.active_partitions(), 2u);
  // Both directions of a partitioned pair drop.
  net.Send(ida, idb, ToBytes("dropped"));
  net.Send(idb, ida, ToBytes("dropped"));
  EXPECT_EQ(net.messages_dropped_partition(), 2u);
  net.ClearPartitions();
  EXPECT_EQ(net.active_partitions(), 0u);
  net.Send(ida, idb, ToBytes("x"));
  net.Send(ida, idc, ToBytes("y"));
  sim.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
}

TEST(NetworkTest, LossyLinkDropsSomeMessages) {
  Simulator sim(99);
  Network net(&sim, LinkModel{1 * kMillisecond, 0, 0.5});
  EchoNode a, b;
  NodeId ida = net.AddNode(&a);
  NodeId idb = net.AddNode(&b);
  const int kSends = 1000;
  for (int i = 0; i < kSends; ++i) {
    net.Send(ida, idb, ToBytes("m"));
  }
  sim.RunUntilIdle();
  EXPECT_GT(b.received.size(), 350u);
  EXPECT_LT(b.received.size(), 650u);
  EXPECT_EQ(b.received.size() + net.messages_dropped(),
            static_cast<size_t>(kSends));
}

TEST(NetworkTest, DropCountersSplitByCause) {
  Simulator sim(5);
  Network net(&sim, LinkModel{1 * kMillisecond, 0, 0.0});
  EchoNode a, b, c;
  NodeId ida = net.AddNode(&a);
  NodeId idb = net.AddNode(&b);
  NodeId idc = net.AddNode(&c);

  // Random loss on the a->b link only.
  net.SetLink(ida, idb, LinkModel{1 * kMillisecond, 0, 1.0});
  net.Send(ida, idb, ToBytes("lost"));
  EXPECT_EQ(net.messages_dropped_loss(), 1u);
  net.SetLink(ida, idb, LinkModel{1 * kMillisecond, 0, 0.0});

  // Partition between a and c.
  net.SetPartitioned(ida, idc, true);
  net.Send(ida, idc, ToBytes("blocked"));
  net.Send(idc, ida, ToBytes("blocked"));
  EXPECT_EQ(net.messages_dropped_partition(), 2u);
  net.SetPartitioned(ida, idc, false);

  // Down receiver: the message is dropped at delivery time (matching the
  // network's long-standing semantics) and attributed to the node.
  net.SetNodeUp(idb, false);
  net.Send(ida, idb, ToBytes("down"));
  sim.RunUntilIdle();
  EXPECT_EQ(net.messages_dropped_node(), 1u);

  // Down sender drops at send time, also against the node.
  net.SetNodeUp(idb, true);
  net.SetNodeUp(ida, false);
  net.Send(ida, idb, ToBytes("from-down"));
  EXPECT_EQ(net.messages_dropped_node(), 2u);
  net.SetNodeUp(ida, true);

  EXPECT_EQ(net.messages_dropped(), net.messages_dropped_loss() +
                                        net.messages_dropped_partition() +
                                        net.messages_dropped_node());
  EXPECT_EQ(net.messages_dropped(), 5u);
}

TEST(NetworkTest, PerLinkOverrideApplies) {
  Simulator sim(1);
  Network net(&sim, LinkModel{100 * kMillisecond, 0, 0.0});
  EchoNode a, b;
  NodeId ida = net.AddNode(&a);
  NodeId idb = net.AddNode(&b);
  net.SetLink(ida, idb, LinkModel{1 * kMillisecond, 0, 0.0});
  net.Send(ida, idb, ToBytes("fast"));
  sim.RunUntil(1 * kMillisecond);
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    Network net(&sim, LinkModel{5 * kMillisecond, 3 * kMillisecond, 0.1});
    EchoNode a, b;
    NodeId ida = net.AddNode(&a);
    NodeId idb = net.AddNode(&b);
    for (int i = 0; i < 200; ++i) {
      net.Send(ida, idb, Bytes{static_cast<uint8_t>(i)});
    }
    sim.RunUntilIdle();
    return b.received.size();
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(ChannelTest, HandshakeDerivesMatchingKeyAndAuthenticates) {
  Rng rng(5);
  KeyPair server_kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer server(server_kp);

  HandshakeHello hello{rng.NextBytes(16)};
  Bytes payload = ToBytes("slave-assignment: node 7");
  HandshakeReply reply = MakeHandshakeReply(server, hello, payload, rng);

  auto key = VerifyHandshakeReply(SignatureScheme::kEd25519,
                                  server_kp.public_key, hello, reply);
  ASSERT_TRUE(key.ok());

  Bytes msg = ToBytes("read request 1");
  Bytes mac = SessionMac(*key, msg);
  EXPECT_TRUE(CheckSessionMac(*key, msg, mac));
  EXPECT_FALSE(CheckSessionMac(*key, ToBytes("read request 2"), mac));
}

TEST(ChannelTest, ForgedReplyRejected) {
  Rng rng(6);
  KeyPair server_kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  KeyPair imposter_kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer imposter(imposter_kp);

  HandshakeHello hello{rng.NextBytes(16)};
  HandshakeReply reply =
      MakeHandshakeReply(imposter, hello, ToBytes("evil payload"), rng);

  auto key = VerifyHandshakeReply(SignatureScheme::kEd25519,
                                  server_kp.public_key, hello, reply);
  EXPECT_FALSE(key.ok());
  EXPECT_EQ(key.error().code(), ErrorCode::kBadSignature);
}

TEST(ChannelTest, TamperedPayloadRejected) {
  Rng rng(7);
  KeyPair server_kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer server(server_kp);
  HandshakeHello hello{rng.NextBytes(16)};
  HandshakeReply reply =
      MakeHandshakeReply(server, hello, ToBytes("assign slave 3"), rng);
  reply.payload = ToBytes("assign slave 4");  // man-in-the-middle edit
  auto key = VerifyHandshakeReply(SignatureScheme::kEd25519,
                                  server_kp.public_key, hello, reply);
  EXPECT_FALSE(key.ok());
}

}  // namespace
}  // namespace sdr
