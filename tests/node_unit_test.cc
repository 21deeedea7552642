// Node-level unit tests that exercise Slave, Master and Auditor logic
// directly (without a full cluster): out-of-order state updates, ack-driven
// catch-up, token adoption rules, and audit finalization gating.
#include <gtest/gtest.h>

#include "src/core/auditor.h"
#include "src/core/master.h"
#include "src/core/pledge.h"
#include "src/core/slave.h"
#include "src/runtime/deployment.h"
#include "src/sim/network.h"

namespace sdr {
namespace {

// Captures everything a node sends.
class SinkNode : public Node {
 public:
  void HandleMessage(NodeId from, const Payload& payload) override {
    received.emplace_back(from, payload.ToBytes());
  }
  std::vector<std::pair<NodeId, Bytes>> received;
};

struct SlaveHarness {
  explicit SlaveHarness(Slave::Behavior behavior = {})
      : sim(1), net(&sim, LinkModel{1 * kMillisecond, 0, 0.0}), rng(42) {
    master_key = KeyPair::Generate(SignatureScheme::kHmacSha256, rng);
    net.AddNode(&master_stub);

    Slave::Options opts;
    opts.params.scheme = SignatureScheme::kHmacSha256;
    opts.params.max_latency = 2 * kSecond;
    opts.behavior = behavior;
    opts.key_pair = KeyPair::Generate(SignatureScheme::kHmacSha256, rng);
    opts.master_keys = {{master_stub.id() + 1, master_key.public_key}};
    // The master id used in tokens is master_stub.id()+1? No — use the
    // stub's id so acks route back to it.
    opts.master_keys = {{master_stub.id(), master_key.public_key}};
    slave = std::make_unique<Slave>(opts);
    net.AddNode(slave.get());
    net.AddNode(&client_stub);
    net.StartAll();
  }

  VersionToken Token(uint64_t version) {
    Signer signer(master_key);
    return MakeVersionToken(signer, master_stub.id(), version, sim.Now());
  }

  void SendUpdate(uint64_t version, WriteBatch batch) {
    StateUpdate update;
    update.version = version;
    update.batch = std::move(batch);
    update.token = Token(version);
    net.Send(master_stub.id(), slave->id(),
             WithType(MsgType::kStateUpdate, update.Encode()));
    sim.RunUntilIdle();
  }

  void SendKeepAlive(uint64_t version) {
    KeepAlive ka;
    ka.token = Token(version);
    net.Send(master_stub.id(), slave->id(),
             WithType(MsgType::kKeepAlive, ka.Encode()));
    sim.RunUntilIdle();
  }

  // Issues a read from the client stub and returns the decoded reply.
  Result<ReadReply> Read(const Query& query) {
    client_stub.received.clear();
    ReadRequest msg;
    msg.request_id = 7;
    msg.query = query;
    net.Send(client_stub.id(), slave->id(),
             WithType(MsgType::kReadRequest, msg.Encode()));
    sim.RunUntilIdle();
    if (client_stub.received.empty()) {
      return Error(ErrorCode::kUnavailable, "no reply");
    }
    const Bytes& payload = client_stub.received.back().second;
    return ReadReply::Decode(Bytes(payload.begin() + 1, payload.end()));
  }

  Simulator sim;
  Network net;
  Rng rng;
  KeyPair master_key;
  SinkNode master_stub;
  SinkNode client_stub;
  std::unique_ptr<Slave> slave;
};

// A master built exactly as a real deployment builds one (MasterOptionsFor),
// wired to stubs standing in for its auditor, its one slave and a client.
struct MasterHarness {
  MasterHarness() : sim(1), net(&sim, LinkModel{1 * kMillisecond, 0, 0.0}) {
    DeploymentConfig config;
    config.slaves_per_master = 1;
    config.params.scheme = SignatureScheme::kHmacSha256;
    plan = BuildDeployment(config);
    master = std::make_unique<Master>(MasterOptionsFor(plan, 0));
    // Node ids follow the deployment roster: directory, master, auditor,
    // slave, client.
    net.AddNode(&directory_stub);
    net.AddNode(master.get());
    net.AddNode(&auditor_stub);
    net.AddNode(&slave_stub);
    net.AddNode(&client_stub);
    EXPECT_EQ(master->id(), plan.master_ids[0]);
    EXPECT_EQ(slave_stub.id(), plan.slave_ids[0]);
    master->AddSlave(plan.slave_certs[0]);
    master->SetBaseContent(plan.base);
    net.StartAll();
  }

  void Run(SimTime span) { sim.RunUntil(sim.Now() + span); }

  void Write() {
    WriteRequest msg;
    msg.request_id = 1;
    msg.batch = {WriteOp::Put("k", "v")};
    net.Send(client_stub.id(), master->id(),
             WithType(MsgType::kWriteRequest, msg.Encode()));
  }

  void Ack(uint64_t applied_version) {
    SlaveAck ack;
    ack.applied_version = applied_version;
    net.Send(slave_stub.id(), master->id(),
             WithType(MsgType::kSlaveAck, ack.Encode()));
  }

  size_t StateUpdatesToSlave() const {
    size_t n = 0;
    for (const auto& [from, payload] : slave_stub.received) {
      auto type = PeekType(payload);
      n += type.ok() && *type == MsgType::kStateUpdate ? 1 : 0;
    }
    return n;
  }

  Simulator sim;
  Network net;
  DeploymentPlan plan;
  std::unique_ptr<Master> master;
  SinkNode directory_stub, auditor_stub, slave_stub, client_stub;
};

TEST(MasterUnitTest, AckBehindAnInFlightPushDoesNotRePush) {
  MasterHarness h;
  h.Write();
  h.Run(50 * kMillisecond);
  ASSERT_EQ(h.master->version(), 1u);
  ASSERT_EQ(h.StateUpdatesToSlave(), 1u);
  // The slave has not applied version 1 yet, but its push left well within
  // one keepalive period: re-signing it would only duplicate it.
  h.Ack(0);
  h.Run(50 * kMillisecond);
  EXPECT_EQ(h.StateUpdatesToSlave(), 1u);
}

TEST(MasterUnitTest, AcksStalledForAKeepaliveTriggerARePush) {
  MasterHarness h;
  h.Write();
  h.Run(50 * kMillisecond);
  ASSERT_EQ(h.StateUpdatesToSlave(), 1u);
  // A keepalive period later the slave still reports version 0: the push
  // was lost, so the master sends it again.
  h.Run(h.plan.config.params.keepalive_period);
  h.Ack(0);
  h.Run(50 * kMillisecond);
  EXPECT_EQ(h.StateUpdatesToSlave(), 2u);
  // Once the slave catches up, nothing further is pushed.
  h.Ack(1);
  h.Run(50 * kMillisecond);
  EXPECT_EQ(h.StateUpdatesToSlave(), 2u);
}

TEST(SlaveUnitTest, BuffersOutOfOrderUpdates) {
  SlaveHarness h;
  h.SendUpdate(2, {WriteOp::Put("b", "2")});  // arrives before v1
  EXPECT_EQ(h.slave->applied_version(), 0u);
  h.SendUpdate(1, {WriteOp::Put("a", "1")});
  EXPECT_EQ(h.slave->applied_version(), 2u);
  EXPECT_EQ(h.slave->store().Get("a"), "1");
  EXPECT_EQ(h.slave->store().Get("b"), "2");
}

TEST(SlaveUnitTest, AcksReportAppliedVersion) {
  SlaveHarness h;
  h.master_stub.received.clear();
  h.SendUpdate(1, {WriteOp::Put("a", "1")});
  ASSERT_FALSE(h.master_stub.received.empty());
  const Bytes& payload = h.master_stub.received.back().second;
  auto type = PeekType(payload);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, MsgType::kSlaveAck);
  auto ack = SlaveAck::Decode(Bytes(payload.begin() + 1, payload.end()));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->applied_version, 1u);
}

TEST(SlaveUnitTest, DeclinesWithoutFreshToken) {
  SlaveHarness h;
  // No token yet at all.
  auto reply = h.Read(Query::Get("x"));
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->ok);

  // Fresh keep-alive: now it serves.
  h.SendKeepAlive(0);
  reply = h.Read(Query::Get("x"));
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->ok);

  // Let the token age past max_latency: declines again.
  h.sim.RunUntil(h.sim.Now() + 3 * kSecond);
  reply = h.Read(Query::Get("x"));
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->ok);
  EXPECT_GT(h.slave->metrics().reads_declined_stale, 0u);
}

TEST(SlaveUnitTest, RejectsTokenFromUnknownMaster) {
  SlaveHarness h;
  // A token signed by an unknown key is ignored -> still no serving.
  Rng rng(99);
  KeyPair rogue = KeyPair::Generate(SignatureScheme::kHmacSha256, rng);
  Signer rogue_signer(rogue);
  KeepAlive ka;
  ka.token = MakeVersionToken(rogue_signer, h.master_stub.id(), 0, h.sim.Now());
  h.net.Send(h.master_stub.id(), h.slave->id(),
             WithType(MsgType::kKeepAlive, ka.Encode()));
  h.sim.RunUntilIdle();
  auto reply = h.Read(Query::Get("x"));
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->ok);
}

TEST(SlaveUnitTest, TokenOnlyAdoptedAtMatchingVersion) {
  SlaveHarness h;
  // Keep-alive for version 3 while the slave is at version 0: unusable
  // (the slave does not hold version-3 state), so reads stay declined.
  h.SendKeepAlive(3);
  auto reply = h.Read(Query::Get("x"));
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->ok);
}

TEST(SlaveUnitTest, IgnoreUpdatesBehaviorStaysStale) {
  Slave::Behavior b;
  b.ignore_updates = true;
  SlaveHarness h(b);
  h.SendUpdate(1, {WriteOp::Put("a", "1")});
  EXPECT_EQ(h.slave->applied_version(), 0u);
  EXPECT_FALSE(h.slave->store().Get("a").has_value());
}

TEST(SlaveUnitTest, PledgeBindsTokenAtExecutionTime) {
  SlaveHarness h;
  h.SendKeepAlive(0);
  auto reply = h.Read(Query::Get("x"));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->ok);
  EXPECT_EQ(reply->pledge.token.content_version, 0u);
  EXPECT_EQ(reply->pledge.slave, h.slave->id());
  // Pledge verifies under the slave's public key.
  EXPECT_TRUE(VerifyPledgeSignature(SignatureScheme::kHmacSha256,
                                    h.slave->public_key(), reply->pledge));
  // Result hash matches.
  EXPECT_EQ(reply->result.Sha1Digest(), reply->pledge.result_sha1);
}

TEST(SlaveUnitTest, DropBehaviorTimesOutRequests) {
  Slave::Behavior b;
  b.drop_probability = 1.0;
  SlaveHarness h(b);
  h.SendKeepAlive(0);
  auto reply = h.Read(Query::Get("x"));
  EXPECT_FALSE(reply.ok());  // nothing came back
}

}  // namespace
}  // namespace sdr
