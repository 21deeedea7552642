// Unit tests for the runtime subsystem: TimerQueue semantics (which must
// mirror the simulator's event queue exactly), the reconnect backoff
// schedule, the node-config grammar, deployment provisioning (and the
// simulator's Cluster being built from it), and RealEnv
// itself on loopback TCP — including the shared-epoch clock that makes
// freshness timestamps comparable across processes.
#include <gtest/gtest.h>

#include <atomic>
#include <ctime>
#include <thread>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/messages.h"
#include "src/forkcheck/fork.h"
#include "src/runtime/deployment.h"
#include "src/runtime/real_env.h"
#include "src/runtime/timer_queue.h"

namespace sdr {
namespace {

int64_t RealtimeUs() {
  timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

// --- TimerQueue ---

TEST(TimerQueueTest, FiresInDeadlineOrder) {
  TimerQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.next_deadline(), 10);
  EXPECT_EQ(q.RunDue(25), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.RunDue(30), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(TimerQueueTest, SameDeadlineFiresInScheduleOrder) {
  TimerQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(100, [&order, i] { order.push_back(i); });
  }
  q.RunDue(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimerQueueTest, CancelPendingTimerPreventsFiring) {
  TimerQueue q;
  bool fired = false;
  EventId id = q.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_EQ(q.RunDue(100), 0u);
  EXPECT_FALSE(fired);
  // Cancelling twice is a no-op that reports failure.
  EXPECT_FALSE(q.Cancel(id));
}

TEST(TimerQueueTest, CancelOnFiredTimerIsNoOp) {
  TimerQueue q;
  int fires = 0;
  EventId a = q.Schedule(10, [&] { ++fires; });
  EventId b = q.Schedule(20, [&] { ++fires; });
  EXPECT_EQ(q.RunDue(10), 1u);
  EXPECT_FALSE(q.Cancel(a));       // already fired
  EXPECT_FALSE(q.Cancel(999999));  // never existed
  EXPECT_FALSE(q.Cancel(0));       // invalid id
  // The unrelated pending timer is untouched.
  EXPECT_TRUE(q.Cancel(b));
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(q.empty());
}

TEST(TimerQueueTest, CallbackMayScheduleAndCancelWithinWindow) {
  TimerQueue q;
  std::vector<int> order;
  EventId victim = q.Schedule(30, [&] { order.push_back(99); });
  q.Schedule(10, [&] {
    order.push_back(1);
    // Within-window insert fires in the same RunDue sweep...
    q.Schedule(15, [&] { order.push_back(2); });
    // ...and a within-window cancel suppresses a due timer.
    q.Cancel(victim);
  });
  EXPECT_EQ(q.RunDue(30), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- Reconnect backoff ---

TEST(ReconnectDelayTest, ExponentialWithCap) {
  const SimTime initial = 100 * kMillisecond;
  const SimTime cap = 5 * kSecond;
  EXPECT_EQ(RealEnv::ReconnectDelay(0, initial, cap), 100 * kMillisecond);
  EXPECT_EQ(RealEnv::ReconnectDelay(1, initial, cap), 200 * kMillisecond);
  EXPECT_EQ(RealEnv::ReconnectDelay(2, initial, cap), 400 * kMillisecond);
  EXPECT_EQ(RealEnv::ReconnectDelay(5, initial, cap), 3200 * kMillisecond);
  EXPECT_EQ(RealEnv::ReconnectDelay(6, initial, cap), cap);
  EXPECT_EQ(RealEnv::ReconnectDelay(50, initial, cap), cap);  // no overflow
}

// --- Node config grammar ---

TEST(NodeConfigTest, FormatParseRoundTrip) {
  NodeConfig config;
  config.node_id = 7;
  config.deployment.seed = 42;
  config.deployment.num_masters = 2;
  config.deployment.num_auditors = 1;
  config.deployment.slaves_per_master = 3;
  config.deployment.num_clients = 4;
  config.deployment.corpus.n_items = 111;
  config.deployment.params.max_latency = 1500 * kMillisecond;
  config.deployment.client_write_fraction = 0.25;
  config.liar_index = 2;
  config.lie_probability = 0.75;
  config.epoch_us = 1234567890;
  config.start_delay_ms = 250;
  config.listen_host = "127.0.0.1";
  config.listen_port = 9000;
  config.peers.push_back({1, "127.0.0.1", 9001});
  config.peers.push_back({2, "10.0.0.2", 9002});

  auto parsed = ParseNodeConfig(FormatNodeConfig(config));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  const NodeConfig& r = *parsed;
  EXPECT_EQ(r.node_id, 7u);
  EXPECT_EQ(r.deployment.seed, 42u);
  EXPECT_EQ(r.deployment.num_masters, 2);
  EXPECT_EQ(r.deployment.slaves_per_master, 3);
  EXPECT_EQ(r.deployment.num_clients, 4);
  EXPECT_EQ(r.deployment.corpus.n_items, 111u);
  EXPECT_EQ(r.deployment.params.max_latency, 1500 * kMillisecond);
  EXPECT_DOUBLE_EQ(r.deployment.client_write_fraction, 0.25);
  EXPECT_EQ(r.liar_index, 2);
  EXPECT_DOUBLE_EQ(r.lie_probability, 0.75);
  EXPECT_EQ(r.epoch_us, 1234567890);
  EXPECT_EQ(r.start_delay_ms, 250);
  EXPECT_EQ(r.listen_port, 9000);
  ASSERT_EQ(r.peers.size(), 2u);
  EXPECT_EQ(r.peers[1].id, 2u);
  EXPECT_EQ(r.peers[1].host, "10.0.0.2");
  EXPECT_EQ(r.peers[1].port, 9002);
}

TEST(NodeConfigTest, CommentsAndBlankLinesIgnored) {
  auto parsed = ParseNodeConfig(
      "# a comment\n"
      "\n"
      "node_id 3   # trailing comment\n"
      "seed 9\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->node_id, 3u);
  EXPECT_EQ(parsed->deployment.seed, 9u);
}

TEST(NodeConfigTest, RejectsUnknownKeysAndMissingNodeId) {
  EXPECT_FALSE(ParseNodeConfig("node_id 1\nbogus_key 5\n").ok());
  EXPECT_FALSE(ParseNodeConfig("seed 1\n").ok());
  EXPECT_FALSE(ParseNodeConfig("node_id 1\nlisten nocolon\n").ok());
}

// --- Deployment provisioning ---

TEST(DeploymentTest, RosterIsRoleMajorThenShardMajor) {
  DeploymentConfig dc;
  dc.num_masters = 2;
  dc.num_auditors = 1;
  dc.slaves_per_master = 2;
  dc.num_clients = 3;
  DeploymentPlan plan = BuildDeployment(dc);

  EXPECT_EQ(plan.directory_id, 1u);
  EXPECT_EQ(plan.master_ids, (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(plan.auditor_ids, (std::vector<NodeId>{4}));
  EXPECT_EQ(plan.slave_ids, (std::vector<NodeId>{5, 6, 7, 8}));
  EXPECT_EQ(plan.client_ids, (std::vector<NodeId>{9, 10, 11}));
  EXPECT_EQ(plan.num_nodes(), 11);

  EXPECT_EQ(plan.KindOf(1), NodeKind::kDirectory);
  EXPECT_EQ(plan.KindOf(3), NodeKind::kMaster);
  EXPECT_EQ(plan.KindOf(4), NodeKind::kAuditor);
  EXPECT_EQ(plan.KindOf(7), NodeKind::kSlave);
  EXPECT_EQ(plan.KindOf(10), NodeKind::kClient);
  EXPECT_EQ(plan.RoleIndexOf(3), 1);
  EXPECT_EQ(plan.RoleIndexOf(7), 2);
  EXPECT_EQ(plan.RoleIndexOf(10), 1);
  EXPECT_EQ(plan.OwnerMasterOf(0), 0);
  EXPECT_EQ(plan.OwnerMasterOf(3), 1);
  EXPECT_FALSE(plan.placement.has_value());

  // Two shards: each role stays one contiguous id range, shard 0 first;
  // the counts (clients aside) are per shard.
  dc.num_shards = 2;
  DeploymentPlan sharded = BuildDeployment(dc);
  EXPECT_EQ(sharded.master_ids, (std::vector<NodeId>{2, 3, 4, 5}));
  EXPECT_EQ(sharded.auditor_ids, (std::vector<NodeId>{6, 7}));
  EXPECT_EQ(sharded.slave_ids,
            (std::vector<NodeId>{8, 9, 10, 11, 12, 13, 14, 15}));
  EXPECT_EQ(sharded.client_ids, (std::vector<NodeId>{16, 17, 18}));
  EXPECT_EQ(sharded.RoleIndexOf(7), 1);   // shard 1's auditor
  EXPECT_EQ(sharded.OwnerMasterOf(5), 2);  // shard 1's first master
  ASSERT_TRUE(sharded.placement.has_value());
  EXPECT_EQ(sharded.placement->shard_masters,
            (std::vector<std::vector<NodeId>>{{2, 3}, {4, 5}}));
  size_t items = 0;
  for (int shard = 0; shard < 2; ++shard) {
    items += sharded.BaseFor(shard).data().size();
  }
  EXPECT_EQ(items, sharded.base.data().size());
}

// Records every message delivered to it, and sends on demand.
class ProbeNode : public Node {
 public:
  void HandleMessage(NodeId, const Payload& payload) override {
    received.push_back(payload.ToBytes());
  }
  void Send(NodeId to, MsgType type, const Bytes& body) {
    env()->Send(to, WithType(type, body));
  }
  std::vector<Bytes> received;
};

// The simulator's Cluster builds every node from the plan rooted at its own
// stream: Rng(seed), after the one fork its Network takes.
TEST(DeploymentTest, ClusterIsBuiltFromItsPlan) {
  for (int shards : {1, 4}) {
    for (uint64_t seed : {1u, 23u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " seed=" + std::to_string(seed));
      ClusterConfig config;
      config.seed = seed;
      config.num_shards = shards;
      Cluster cluster(config);
      Rng root(seed);
      root.Fork();  // the Network's
      const DeploymentPlan plan = BuildDeployment(config, root);

      EXPECT_EQ(cluster.content().content_public_key,
                plan.content.content_public_key);
      EXPECT_EQ(cluster.directory().id(), plan.directory_id);
      ASSERT_EQ(cluster.num_masters(), static_cast<int>(plan.master_ids.size()));
      const int per_master = config.slaves_per_master;
      for (int i = 0; i < cluster.num_masters(); ++i) {
        EXPECT_EQ(cluster.master(i).id(), plan.master_ids[i]);
        EXPECT_EQ(cluster.master(i).public_key(),
                  plan.master_keys[i].public_key);
        EXPECT_EQ(cluster.master(i).my_slave_certs(),
                  std::vector<Certificate>(
                      plan.slave_certs.begin() + i * per_master,
                      plan.slave_certs.begin() + (i + 1) * per_master));
      }
      // Auditors sign nothing, so only their ids are observable.
      ASSERT_EQ(cluster.num_auditors(),
                static_cast<int>(plan.auditor_ids.size()));
      for (int i = 0; i < cluster.num_auditors(); ++i) {
        EXPECT_EQ(cluster.auditor(i).id(), plan.auditor_ids[i]);
      }
      ASSERT_EQ(cluster.num_slaves(), static_cast<int>(plan.slave_ids.size()));
      for (int i = 0; i < cluster.num_slaves(); ++i) {
        EXPECT_EQ(cluster.slave(i).id(), plan.slave_ids[i]);
        EXPECT_EQ(cluster.slave(i).public_key(), plan.slave_keys[i].public_key);
      }
      ASSERT_EQ(cluster.num_clients(), static_cast<int>(plan.client_ids.size()));
      for (int i = 0; i < cluster.num_clients(); ++i) {
        EXPECT_EQ(cluster.client(i).id(), plan.client_ids[i]);
      }

      // The directory serves the plan's master certificates and placement.
      ProbeNode probe;
      cluster.net().AddNode(&probe);
      DirectoryLookup lookup;
      lookup.content_public_key = plan.content.content_public_key;
      probe.Send(plan.directory_id, MsgType::kDirectoryLookup,
                 lookup.Encode());
      PlacementQuery query;
      query.content_public_key = plan.content.content_public_key;
      probe.Send(plan.directory_id, MsgType::kPlacementQuery, query.Encode());
      cluster.RunFor(1 * kSecond);
      ASSERT_EQ(probe.received.size(), 2u);
      for (const Bytes& reply : probe.received) {
        BytesView body = BytesView(reply).substr(1);
        if (static_cast<MsgType>(reply[0]) == MsgType::kDirectoryLookupReply) {
          auto certs = DirectoryLookupReply::Decode(body);
          ASSERT_TRUE(certs.ok());
          EXPECT_EQ(certs->master_certs, plan.master_certs);
        } else {
          ASSERT_EQ(static_cast<MsgType>(reply[0]), MsgType::kPlacementReply);
          auto placement = PlacementReply::Decode(body);
          ASSERT_TRUE(placement.ok());
          ASSERT_EQ(placement->found, shards > 1);
          if (shards > 1) {
            EXPECT_EQ(placement->placement, *plan.placement);
          }
        }
      }
    }
  }
}

// Each shard's auditor roots the evidence it emits in the content key, and
// every client knows the shard count and its gossip peers.
TEST(DeploymentTest, FactoriesWireAuditorsAndClientsForTheirShard) {
  DeploymentConfig dc;
  dc.seed = 5;
  dc.num_shards = 2;
  dc.num_clients = 3;
  DeploymentPlan plan = BuildDeployment(dc);

  // Slave 0 (shard 0) forks its pledge chain after one shared pledge.
  const NodeId master = plan.master_ids[0];
  const NodeId slave = plan.slave_ids[0];
  Signer master_signer(plan.master_keys[0]);
  Signer slave_signer(plan.slave_keys[0]);
  auto pledge = [&](uint64_t version, uint8_t digest) {
    return MakePledge(slave_signer, slave, Query::Get(ItemKey(0)),
                      Bytes(20, digest),
                      MakeVersionToken(master_signer, master, version, 0));
  };
  auto attest = [&](const VersionVector& vv, uint64_t version) {
    AttestedVv avv;
    avv.vv = vv;
    avv.token = MakeVersionToken(master_signer, master, version, 0);
    avv.slave_cert = plan.slave_certs[0];
    return avv;
  };
  PledgeChain a;
  PledgeChain b;
  const Pledge shared = pledge(1, 1);
  a.ExtendAndCommit(slave_signer, slave, 1, shared);
  b.ExtendAndCommit(slave_signer, slave, 1, shared);
  const VersionVector vva = a.ExtendAndCommit(slave_signer, slave, 2, pledge(2, 2));
  const VersionVector vvb = b.ExtendAndCommit(slave_signer, slave, 2, pledge(2, 3));
  EvidenceChain chain = MakeEvidenceChain(attest(vva, 2), attest(vvb, 2),
                                          AuditorOptionsFor(plan, 0).master_certs);
  std::string why;
  EXPECT_TRUE(VerifyEvidenceChain(plan.content.scheme,
                                  plan.content.content_public_key, chain, &why))
      << why;
  // Shard 1's auditor holds only shard 1's master certificates.
  EXPECT_EQ(AuditorOptionsFor(plan, 1).master_certs,
            std::vector<Certificate>{plan.master_certs[1]});

  for (int c = 0; c < dc.num_clients; ++c) {
    Client::Options opts =
        ClientOptionsFor(plan, c, Client::LoadMode::kClosedLoop);
    EXPECT_EQ(opts.num_shards, 2u);
    EXPECT_EQ(opts.peer_clients, plan.client_ids);
  }
}

TEST(DeploymentTest, SameSeedDerivesIdenticalKeysAcrossProcesses) {
  DeploymentConfig dc;
  dc.seed = 77;
  dc.num_masters = 2;
  dc.slaves_per_master = 2;
  // Two independent builds (as two processes would do) must agree on every
  // public key and certificate — that is the whole premise of config-only
  // provisioning.
  DeploymentPlan a = BuildDeployment(dc);
  DeploymentPlan b = BuildDeployment(dc);
  EXPECT_EQ(a.content.content_public_key, b.content.content_public_key);
  ASSERT_EQ(a.master_keys.size(), b.master_keys.size());
  for (size_t i = 0; i < a.master_keys.size(); ++i) {
    EXPECT_EQ(a.master_keys[i].public_key, b.master_keys[i].public_key);
    EXPECT_EQ(a.master_keys[i].private_key, b.master_keys[i].private_key);
  }
  ASSERT_EQ(a.slave_certs.size(), b.slave_certs.size());
  for (size_t i = 0; i < a.slave_certs.size(); ++i) {
    EXPECT_EQ(a.slave_certs[i].signature, b.slave_certs[i].signature);
  }

  dc.seed = 78;
  DeploymentPlan c = BuildDeployment(dc);
  EXPECT_NE(a.content.content_public_key, c.content.content_public_key);
}

// --- RealEnv on loopback ---

// Minimal protocol-free node: counts deliveries and can echo them back.
class PingNode : public Node {
 public:
  explicit PingNode(NodeId peer) : peer_(peer) {}

  void Start() override { started_ = true; }

  void HandleMessage(NodeId from, const Payload& payload) override {
    received_.fetch_add(1, std::memory_order_relaxed);
    last_from_ = from;
    last_size_ = payload.size();
    if (echo_) {
      env()->Send(from, payload);
    }
  }

  void set_echo(bool echo) { echo_ = echo; }
  int received() const { return received_.load(std::memory_order_relaxed); }
  NodeId last_from() const { return last_from_; }
  size_t last_size() const { return last_size_; }
  bool started() const { return started_; }

 private:
  NodeId peer_;
  bool echo_ = false;
  bool started_ = false;
  std::atomic<int> received_{0};
  NodeId last_from_ = kInvalidNode;
  size_t last_size_ = 0;
};

TEST(RealEnvTest, LoopbackRoundTripBetweenTwoProcsWorthOfEnvs) {
  RealEnv::Options opts1;
  opts1.rng_seed = 1;
  RealEnv env1(opts1);
  RealEnv::Options opts2;
  opts2.rng_seed = 2;
  RealEnv env2(opts2);
  ASSERT_NE(env1.listen_port(), 0);
  ASSERT_NE(env2.listen_port(), 0);

  PingNode node1(2);
  PingNode node2(1);
  node2.set_echo(true);
  env1.Attach(&node1, 1);
  env2.Attach(&node2, 2);
  env1.AddPeer(2, "127.0.0.1", env2.listen_port());
  env2.AddPeer(1, "127.0.0.1", env1.listen_port());

  // node1 pings node2 every 5ms; node2 echoes each ping back.
  const int kPings = 10;
  std::function<void(int)> ping = [&](int i) {
    env1.Send(2, Payload(Bytes{0xAB, 0xCD, static_cast<uint8_t>(i)}));
    if (i + 1 < kPings) {
      env1.ScheduleAfter(5 * kMillisecond, [&ping, i] { ping(i + 1); });
    }
  };
  env1.ScheduleAfter(1 * kMillisecond, [&ping] { ping(0); });

  std::thread t1([&] { env1.Run(); });
  std::thread t2([&] { env2.Run(); });
  // Wait (bounded) for all echoes to come home.
  for (int spin = 0; spin < 500 && node1.received() < kPings; ++spin) {
    timespec ts{0, 10 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  env1.RequestStop();
  env2.RequestStop();
  t1.join();
  t2.join();

  EXPECT_TRUE(node1.started());
  EXPECT_EQ(node2.received(), kPings);
  EXPECT_EQ(node1.received(), kPings);
  EXPECT_EQ(node1.last_from(), 2u);
  EXPECT_EQ(node1.last_size(), 3u);
  EXPECT_GE(env1.messages_sent(), static_cast<uint64_t>(kPings));
  EXPECT_GE(env2.messages_delivered(), static_cast<uint64_t>(kPings));
  EXPECT_GT(env1.bytes_sent(), 0u);
}

TEST(RealEnvTest, SendToUnknownPeerDropsAndCounts) {
  RealEnv env((RealEnv::Options()));
  PingNode node(0);
  env.Attach(&node, 1);
  env.Send(99, Payload(Bytes{1, 2, 3}));
  // Like the simulated Network, a send is counted even when it drops.
  EXPECT_EQ(env.messages_dropped(), 1u);
  EXPECT_EQ(env.messages_sent(), 1u);
  EXPECT_EQ(env.messages_delivered(), 0u);
}

// The shared-epoch clock: two envs given the same epoch report comparable
// Now() even though they were constructed at different instants. This is
// the regression test for cross-process freshness (TokenIsFresh compares a
// master-minted timestamp against the local clock, so every process must
// count from the same zero).
TEST(RealEnvTest, SharedEpochMakesClocksComparableAcrossEnvs) {
  const int64_t epoch = RealtimeUs() - 5 * kSecond;  // "cluster started 5s ago"
  RealEnv::Options opts;
  opts.epoch_realtime_us = epoch;
  RealEnv env1(opts);

  timespec ts{0, 50 * 1000 * 1000};  // env2 starts 50ms later
  nanosleep(&ts, nullptr);
  RealEnv env2(opts);

  // Both clocks read ~5s despite different construction times; they agree
  // within a generous skew bound (same host, same epoch).
  EXPECT_GE(env1.Now(), 5 * kSecond);
  EXPECT_GE(env2.Now(), 5 * kSecond);
  EXPECT_LT(env1.Now(), 7 * kSecond);
  int64_t diff = env1.Now() - env2.Now();
  EXPECT_LT(diff < 0 ? -diff : diff, 1 * kSecond);

  // Without an epoch, Now() counts from construction — small and process
  // local (the mode tests and single-node runs use).
  RealEnv env3((RealEnv::Options()));
  EXPECT_LT(env3.Now(), 1 * kSecond);
  EXPECT_GE(env3.Now(), 0);
}

TEST(RealEnvTest, ScheduleAndCancelMirrorSimulatorSemantics) {
  RealEnv env((RealEnv::Options()));
  PingNode node(0);
  env.Attach(&node, 1);

  std::vector<int> order;
  env.ScheduleAfter(10 * kMillisecond, [&] { order.push_back(2); });
  env.ScheduleAfter(2 * kMillisecond, [&] { order.push_back(1); });
  EventId cancelled =
      env.ScheduleAfter(5 * kMillisecond, [&] { order.push_back(99); });
  env.Cancel(cancelled);
  env.Cancel(cancelled);  // double-cancel: no-op
  env.ScheduleAfter(20 * kMillisecond, [&] { env.RequestStop(); });
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace sdr
