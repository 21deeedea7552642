// Node-level unit tests that exercise Slave, Master and Auditor logic
// directly (without a full cluster): out-of-order state updates, ack-driven
// catch-up, token adoption rules, and audit finalization gating.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/core/auditor.h"
#include "src/core/client.h"
#include "src/core/directory.h"
#include "src/core/master.h"
#include "src/core/pledge.h"
#include "src/core/slave.h"
#include "src/crypto/sha1.h"
#include "src/runtime/deployment.h"
#include "src/sim/network.h"
#include "src/workload/workload.h"
#include "tests/mutate.h"

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
    slave_key = KeyPair::Generate(SignatureScheme::kHmacSha256, rng);
    opts.key_pair = slave_key;
    opts.master_keys = {{master_stub.id() + 1, master_key.public_key}};
    // The master id used in tokens is master_stub.id()+1? No — use the
    // stub's id so acks route back to it.
    opts.master_keys = {{master_stub.id(), master_key.public_key}};
    slave = std::make_unique<Slave>(opts);
    net.AddNode(slave.get());
    net.AddNode(&client_stub);  // odd id: the set a forked slave targets
    net.AddNode(&client_even);
    net.StartAll();
  }

  VersionToken Token(uint64_t version) {
    Signer signer(master_key);
    return MakeVersionToken(signer, master_stub.id(), version, sim.Now());
  }

  // The frame a master sends for versions [first, first + batches.size()
  // - 1]: the batches under one BatchCommit, with a token for
  // `token_version`.
  Bytes CertifiedRun(uint64_t first, std::vector<WriteBatch> batches,
                     uint64_t token_version) {
    StateUpdateBatch msg;
    msg.first_version = first;
    msg.batches = std::move(batches);
    msg.token = Token(token_version);
    msg.commit = MakeBatchCommit(Signer(master_key), master_stub.id(), first,
                                 first + msg.batches.size() - 1,
                                 msg.BatchesSha1(), sim.Now());
    return WithType(MsgType::kStateUpdateBatch, msg.Encode());
  }

  void SendFrame(NodeId from, const Bytes& frame) {
    net.Send(from, slave->id(), frame);
    sim.RunUntilIdle();
  }

  void SendUpdate(uint64_t version, WriteBatch batch) {
    SendFrame(master_stub.id(), CertifiedRun(version, {std::move(batch)},
                                             version));
  }

  void SendKeepAlive(uint64_t version) {
    KeepAlive ka;
    ka.token = Token(version);
    net.Send(master_stub.id(), slave->id(),
             WithType(MsgType::kKeepAlive, ka.Encode()));
    sim.RunUntilIdle();
  }

  void SendRead(SinkNode& client, const Query& query) {
    ReadRequest msg;
    msg.request_id = 7;
    msg.query = query;
    net.Send(client.id(), slave->id(),
             WithType(MsgType::kReadRequest, msg.Encode()));
  }

  // Issues a read from `client` and returns the decoded reply.
  Result<ReadReply> ReadFrom(SinkNode& client, const Query& query) {
    client.received.clear();
    SendRead(client, query);
    sim.RunUntilIdle();
    if (client.received.empty()) {
      return Error(ErrorCode::kUnavailable, "no reply");
    }
    const Bytes& payload = client.received.back().second;
    return ReadReply::Decode(Bytes(payload.begin() + 1, payload.end()));
  }
  Result<ReadReply> Read(const Query& query) {
    return ReadFrom(client_stub, query);
  }

  Simulator sim;
  Network net;
  Rng rng;
  KeyPair master_key;
  KeyPair slave_key;
  SinkNode master_stub;
  SinkNode client_stub;
  SinkNode client_even;
  std::unique_ptr<Slave> slave;
};

// A master built exactly as a real deployment builds one (MasterOptionsFor),
// wired to stubs standing in for its auditor, its one slave and a client.
struct MasterHarness {
  explicit MasterHarness(DeploymentConfig config = {})
      : sim(1), net(&sim, LinkModel{1 * kMillisecond, 0, 0.0}) {
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

  void Write(uint64_t request_id = 1,
             WriteBatch batch = {WriteOp::Put("k", "v")}) {
    WriteRequest msg;
    msg.request_id = request_id;
    msg.batch = std::move(batch);
    net.Send(client_stub.id(), master->id(),
             WithType(MsgType::kWriteRequest, msg.Encode()));
  }

  void Ack(uint64_t applied_version) {
    SlaveAck ack;
    ack.applied_version = applied_version;
    net.Send(slave_stub.id(), master->id(),
             WithType(MsgType::kSlaveAck, ack.Encode()));
  }

  // Every state-update frame the slave stub has received, in order.
  std::vector<Bytes> StateUpdateFrames() const {
    std::vector<Bytes> frames;
    for (const auto& [from, payload] : slave_stub.received) {
      auto type = PeekType(payload);
      if (type.ok() && *type == MsgType::kStateUpdateBatch) {
        frames.push_back(payload);
      }
    }
    return frames;
  }
  size_t StateUpdatesToSlave() const { return StateUpdateFrames().size(); }

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

TEST(MasterUnitTest, StalledCatchUpIsOneCertifiedRun) {
  MasterHarness h;
  const ProtocolParams& params = h.plan.config.params;
  for (uint64_t i = 1; i <= 3; ++i) {
    h.Write(i, {WriteOp::Put("k" + std::to_string(i), "v")});
  }
  h.Run(2 * params.max_latency + 50 * kMillisecond);
  ASSERT_EQ(h.master->version(), 3u);
  ASSERT_EQ(h.StateUpdatesToSlave(), 3u);
  // All three pushes were lost: a keepalive later the slave acks version 0.
  h.Run(params.keepalive_period);
  const uint64_t signatures = h.master->metrics().commit_signatures;
  h.Ack(0);
  h.Run(50 * kMillisecond);
  std::vector<Bytes> frames = h.StateUpdateFrames();
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(h.master->metrics().commit_signatures, signatures + 2);
  auto run = StateUpdateBatch::Decode(BytesView(frames.back()).substr(1));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->first_version, 1u);
  ASSERT_EQ(run->batches.size(), 3u);
  for (uint64_t v = 1; v <= 3; ++v) {
    EXPECT_EQ(run->batches[v - 1], *h.master->oplog().BatchFor(v));
  }
  EXPECT_EQ(run->token.content_version, 3u);
  EXPECT_EQ(run->commit.first_version, 1u);
  EXPECT_EQ(run->commit.last_version, 3u);
  EXPECT_EQ(run->commit.batches_sha1, run->BatchesSha1());
  EXPECT_TRUE(VerifyBatchCommit(params.scheme, h.master->public_key(),
                                run->commit, nullptr));
}

// A pledge against the harness's slave for ItemKey(0) whose hash is no
// execution's, signed by `signer` under a genuine token.
Accusation ForgedAccusation(const MasterHarness& h, const Signer& signer) {
  Accusation accusation;
  accusation.pledge = MakePledge(
      signer, h.slave_stub.id(), Query::Get(ItemKey(0)), Bytes(20, 0xee),
      MakeVersionToken(Signer(h.plan.master_keys[0]), h.plan.master_ids[0],
                       0, h.sim.Now()));
  return accusation;
}

TEST(MasterUnitTest, AccusationsAreConfirmedRepeatedOrUnfounded) {
  MasterHarness h;
  auto accuse = [&h](const Signer& signer) {
    h.net.Send(h.auditor_stub.id(), h.master->id(),
               WithType(MsgType::kAccusation,
                        ForgedAccusation(h, signer).Encode()));
    h.Run(50 * kMillisecond);
  };
  const Signer slave(h.plan.slave_keys[0]);
  // The first proof excludes the slave; proving the same slave guilty
  // again is a repeat, not an unfounded accusation.
  accuse(slave);
  EXPECT_TRUE(h.master->IsExcluded(h.slave_stub.id()));
  accuse(slave);
  accuse(slave);
  // A pledge the slave never signed proves nothing.
  accuse(Signer(h.plan.master_keys[0]));
  const MasterMetrics& m = h.master->metrics();
  EXPECT_EQ(m.accusations_received, 4u);
  EXPECT_EQ(m.accusations_confirmed, 1u);
  EXPECT_EQ(m.accusations_repeat, 2u);
  EXPECT_EQ(m.accusations_unfounded, 1u);
  EXPECT_EQ(m.slaves_excluded, 1u);
}

// Certified runs captured from a plan-built master (six commits, then two
// catch-ups after stalled acks) under seeded mutation, each mutant fed to a
// fresh slave after a genuine prefix: nothing may crash, and whatever the
// slave applies must be exactly the master's content at that version.
TEST(SlaveRobustness, MutatedStateUpdatesNeverCorruptTheStore) {
  DeploymentConfig config;
  config.corpus.n_items = 10;
  MasterHarness h(config);
  const ProtocolParams& params = h.plan.config.params;
  for (uint64_t i = 1; i <= 6; ++i) {
    WriteBatch batch = {
        WriteOp::Put("k" + std::to_string(i), std::string(i, 'v'))};
    if (i > 2) {
      batch.push_back(WriteOp::Delete("k" + std::to_string(i - 2)));
    }
    h.Write(i, std::move(batch));
  }
  h.Run(5 * params.max_latency + 50 * kMillisecond);
  ASSERT_EQ(h.master->version(), 6u);
  h.Run(params.keepalive_period);
  h.Ack(0);  // versions 1-6 in one run
  h.Run(params.keepalive_period + 50 * kMillisecond);
  h.Ack(3);  // versions 4-6
  h.Run(50 * kMillisecond);
  const std::vector<Bytes> frames = h.StateUpdateFrames();
  ASSERT_EQ(frames.size(), 8u);
  std::vector<Bytes> bodies;
  for (const Bytes& frame : frames) {
    bodies.emplace_back(frame.begin() + 1, frame.end());
  }
  std::vector<Bytes> truth;  // content fingerprint at each version
  for (uint64_t v = 0; v <= 6; ++v) {
    truth.push_back(h.master->oplog().MaterializeAt(v)->Fingerprint());
  }

  Rng rng(61);
  uint64_t applied_by_mutant = 0;
  for (int i = 0; i < 20000 && !::testing::Test::HasFailure(); ++i) {
    Simulator sim(1);
    Network net(&sim, LinkModel{1 * kMillisecond, 0, 0.0});
    SinkNode master_stub;
    Slave slave(SlaveOptionsFor(h.plan, 0));
    net.AddNode(&master_stub);
    net.AddNode(&slave);
    slave.SetBaseContent(h.plan.base);
    net.StartAll();
    auto deliver = [&](const Bytes& frame) {
      net.Send(master_stub.id(), slave.id(), frame);
      sim.RunUntilIdle();
    };
    auto store_matches_master = [&] {
      ASSERT_LE(slave.applied_version(), 6u);
      EXPECT_EQ(slave.store().Fingerprint(), truth[slave.applied_version()])
          << "mutant " << i << " at version " << slave.applied_version();
    };
    const size_t prefix = rng.NextBounded(7);  // genuine commits first
    for (size_t f = 0; f < prefix; ++f) {
      deliver(frames[f]);
    }
    const uint64_t before = slave.applied_version();
    deliver(WithType(MsgType::kStateUpdateBatch,
                     Mutate(bodies[rng.NextBounded(bodies.size())], rng,
                            bodies)));
    applied_by_mutant += slave.applied_version() > before ? 1 : 0;
    store_matches_master();
    // No mutant can stall the genuine stream that follows it.
    for (size_t f = prefix; f < 6; ++f) {
      deliver(frames[f]);
    }
    EXPECT_EQ(slave.applied_version(), 6u);
    store_matches_master();
  }
  // Edits to the unsigned token leave the certified batches intact, so
  // some mutants do apply and the check above is not vacuous.
  EXPECT_GT(applied_by_mutant, 100u);
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

TEST(SlaveUnitTest, UncertifiedUpdatesNeverTouchTheStore) {
  SlaveHarness h;
  const NodeId attacker = h.client_stub.id();
  auto untouched = [&h](const char* frame) {
    SCOPED_TRACE(frame);
    EXPECT_EQ(h.slave->applied_version(), 0u);
    EXPECT_FALSE(h.slave->store().Get("x").has_value());
  };
  // Message type 13 in its retired per-version encoding (version, batch,
  // token), with a token no master signed.
  {
    Writer w;
    w.U64(1);
    EncodeBatch(w, {WriteOp::Put("x", "forged")});
    VersionToken token;
    token.master = h.master_stub.id();
    token.content_version = 1;
    token.timestamp = h.sim.Now();
    token.signature = Bytes(32, 0xab);
    token.EncodeTo(w);
    Bytes frame = w.Take();
    frame.insert(frame.begin(), 13);
    h.SendFrame(attacker, frame);
    untouched("type 13");
  }
  // A genuine certificate with a different batch spliced under it.
  {
    Bytes genuine = h.CertifiedRun(1, {{WriteOp::Put("x", "real")}}, 1);
    auto msg = StateUpdateBatch::Decode(BytesView(genuine).substr(1));
    ASSERT_TRUE(msg.ok());
    msg->batches[0] = {WriteOp::Put("x", "forged")};
    h.SendFrame(attacker, WithType(MsgType::kStateUpdateBatch, msg->Encode()));
    untouched("spliced batch");
  }
  // A well-formed run certified by a key the slave does not know.
  {
    Rng rng(99);
    Signer rogue(KeyPair::Generate(SignatureScheme::kHmacSha256, rng));
    StateUpdateBatch msg;
    msg.first_version = 1;
    msg.batches = {{WriteOp::Put("x", "forged")}};
    msg.token =
        MakeVersionToken(rogue, h.master_stub.id(), 1, h.sim.Now());
    msg.commit = MakeBatchCommit(rogue, h.master_stub.id(), 1, 1,
                                 msg.BatchesSha1(), h.sim.Now());
    h.SendFrame(attacker, WithType(MsgType::kStateUpdateBatch, msg.Encode()));
    untouched("unknown key");
  }
  // The master's genuine version-1 token is useless to a slave at
  // version 0: it keeps declining rather than vouch for forged content.
  h.SendKeepAlive(1);
  auto reply = h.Read(Query::Get("x"));
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->ok);
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
  EXPECT_EQ(Sha1::Hash(reply->result), reply->pledge.result_sha1);
}

TEST(SlaveUnitTest, ServedMemoIsBounded) {
  SlaveHarness h;
  DocumentStore base;
  base.ApplyBatch(
      {WriteOp::Put("big", std::string(Slave::kMemoMaxResultBytes, 'x'))});
  h.slave->SetBaseContent(base);
  h.SendKeepAlive(0);
  auto reused = [&h] { return h.slave->metrics().pledge_signatures_reused; };
  // A result over the size bound is served but never kept.
  ASSERT_TRUE(h.Read(Query::Get("big"))->ok);
  ASSERT_TRUE(h.Read(Query::Get("big"))->ok);
  EXPECT_EQ(reused(), 0u);
  // Small results are kept, kMemoCapacity of them, least recently used
  // evicted first. All requests land at once, well inside one token.
  for (size_t i = 0; i <= Slave::kMemoCapacity; ++i) {
    h.SendRead(h.client_stub, Query::Get("key" + std::to_string(i)));
  }
  h.sim.RunUntilIdle();
  EXPECT_EQ(reused(), 0u);
  ASSERT_TRUE(
      h.Read(Query::Get("key" + std::to_string(Slave::kMemoCapacity)))->ok);
  EXPECT_EQ(reused(), 1u);
  ASSERT_TRUE(h.Read(Query::Get("key0"))->ok);  // evicted: served afresh
  EXPECT_EQ(reused(), 1u);
}

// ---------------------------------------------------------------------------
// The served-read memo against an unoptimized oracle. A seeded stream of
// reads (many of them repeats), state updates, batched updates, updates
// whose token the slave cannot adopt, keep-alives and behavior toggles
// drives one slave. Every reply is checked against a shadow DocumentStore
// per version, a fresh execution at the version the reply must come from,
// and a plain Signer::Sign.
// ---------------------------------------------------------------------------

class MemoOracle {
 public:
  MemoOracle(const Slave::Behavior& attack, uint64_t seed)
      : attack_(attack), rng_(seed), slave_signer_(h_.slave_key) {
    DocumentStore base;
    for (int i = 0; i < kKeys; ++i) {
      base.ApplyBatch({WriteOp::Put(Key(i), std::to_string(10 + i))});
    }
    h_.slave->SetBaseContent(base);
    h_.slave->SetBehavior(attack_);
    history_.push_back(base);
    batches_.emplace_back();
    h_.SendKeepAlive(0);
  }

  void Run(int steps) {
    for (int i = 0; i < steps && !::testing::Test::HasFatalFailure(); ++i) {
      uint64_t roll = rng_.NextBounded(100);
      if (roll < 35) {
        const auto& queries = Queries();
        Read(rng_.NextBool(0.5), queries[rng_.NextBounded(queries.size())]);
      } else if (roll < 55) {
        Read(rng_.NextBool(0.5), last_query_);  // a repeat, from either set
      } else if (roll < 65) {
        Send(MsgType::kKeepAlive, KeepAlive{Token(master_version())}.Encode());
      } else if (roll < 75) {
        Updates(/*adoptable_token=*/true);
      } else if (roll < 82) {
        Updates(/*adoptable_token=*/false);
      } else if (roll < 90) {
        BatchedUpdate();
      } else if (roll < 95) {
        attacking_ = !attacking_;
        h_.slave->SetBehavior(attacking_ ? attack_ : Slave::Behavior{});
      } else {
        h_.sim.RunUntil(h_.sim.Now() + 400 * kMillisecond);  // tokens age
      }
    }
  }

  uint64_t replies_checked() const { return replies_checked_; }
  uint64_t memo_hits() const { return memo_hits_; }
  uint64_t lies() const { return lies_; }

 private:
  static constexpr int kKeys = 6;
  static std::string Key(uint64_t i) { return "k" + std::to_string(i); }
  static const std::vector<Query>& Queries() {
    static const std::vector<Query> kQueries = {
        Query::Get("k0"),
        Query::Get("k1"),
        Query::Get("k2"),
        Query::Get("absent"),
        Query::Scan("k0", "k9"),
        Query::Scan("k1", "k5", 2),
        Query::Grep("1"),
        Query::Aggregate(QueryKind::kCount),
        Query::Aggregate(QueryKind::kSum, "k0", "k3"),
        Query::Grep("("),  // invalid: declined after the view is chosen
    };
    return kQueries;
  }

  uint64_t master_version() const { return history_.size() - 1; }

  VersionToken Token(uint64_t version) { return h_.Token(version); }

  void Send(MsgType type, const Bytes& body) {
    h_.SendFrame(h_.master_stub.id(), WithType(type, body));
  }

  void NewVersion() {
    WriteBatch batch;
    for (uint64_t n = 1 + rng_.NextBounded(2); n > 0; --n) {
      std::string key = Key(rng_.NextBounded(kKeys));
      batch.push_back(rng_.NextBool(0.2)
                          ? WriteOp::Delete(key)
                          : WriteOp::Put(key, std::to_string(
                                                  rng_.NextBounded(100))));
    }
    DocumentStore next = history_.back();
    next.ApplyBatch(batch);
    history_.push_back(std::move(next));
    batches_.push_back(std::move(batch));
  }

  // The slave keeps a lag view of the content before each version it
  // applies under stale_pledge.
  void AfterApply(uint64_t applied_before) {
    uint64_t applied = h_.slave->applied_version();
    if (applied > applied_before && h_.slave->behavior().stale_pledge) {
      lag_ = applied - 1;
    }
  }

  // One new version, then every version the slave lacks, one update each
  // (a master's catch-up push). Without an adoptable token the content
  // advances while the slave keeps its old token, so only the applied
  // version tells the old answers from the new.
  void Updates(bool adoptable_token) {
    NewVersion();
    uint64_t before = h_.slave->applied_version();
    for (uint64_t v = before + 1; v <= master_version(); ++v) {
      h_.SendFrame(h_.master_stub.id(),
                   h_.CertifiedRun(v, {batches_[v]},
                                   adoptable_token ? v : v - 1));
    }
    AfterApply(before);
  }

  void BatchedUpdate() {
    for (uint64_t n = 1 + rng_.NextBounded(3); n > 0; --n) {
      NewVersion();
    }
    uint64_t before = h_.slave->applied_version();
    std::vector<WriteBatch> run(
        batches_.begin() + static_cast<long>(before) + 1, batches_.end());
    h_.SendFrame(h_.master_stub.id(),
                 h_.CertifiedRun(before + 1, std::move(run), master_version()));
    AfterApply(before);
  }

  void Read(bool odd_client, const Query& query) {
    last_query_ = query;
    const SlaveMetrics before = h_.slave->metrics();
    auto reply =
        h_.ReadFrom(odd_client ? h_.client_stub : h_.client_even, query);
    const SlaveMetrics after = h_.slave->metrics();
    ASSERT_TRUE(reply.ok());
    if (after.reads_declined_stale > before.reads_declined_stale) {
      EXPECT_FALSE(reply->ok);  // declined before any view is chosen
      return;
    }
    // The view this read must be answered from, as Slave::Behavior
    // documents it: the targeted (odd) set reads a view frozen at its
    // first read since the fork began; under stale_pledge everyone reads
    // the content before the last version applied.
    const Slave::Behavior& b = h_.slave->behavior();
    const bool fork_active = b.fork_views || b.split_serve;
    if (!fork_active) {
      fork_.reset();
    }
    if (!b.stale_pledge) {
      lag_.reset();
    }
    const uint64_t applied = h_.slave->applied_version();
    uint64_t served = applied;
    bool from_view = false;
    if (fork_active && odd_client) {
      if (!fork_.has_value()) {
        fork_ = applied;
      }
      served = *fork_;
      from_view = true;
    } else if (!fork_active && b.stale_pledge && lag_.has_value()) {
      served = *lag_;
      from_view = true;
    }
    const uint64_t reused =
        after.pledge_signatures_reused - before.pledge_signatures_reused;
    const uint64_t lied = after.lies_told - before.lies_told;
    auto fresh = QueryExecutor().Execute(history_[served], query);
    if (!fresh.ok()) {
      EXPECT_FALSE(reply->ok);
      EXPECT_EQ(reused, 0u);
      return;
    }
    ASSERT_TRUE(reply->ok);
    ++replies_checked_;
    const Bytes truth = fresh->result.Encode();
    const Pledge& pledge = reply->pledge;
    EXPECT_EQ(pledge.query, query);
    EXPECT_EQ(pledge.slave, h_.slave->id());
    // A memoized signature is exactly a fresh one.
    EXPECT_EQ(pledge.signature, slave_signer_.Sign(pledge.SignedBody()));
    if (from_view) {
      EXPECT_EQ(reused, 0u) << "a fork or lag view was served from the memo";
    }
    if (lied == 0) {
      EXPECT_EQ(reply->result, truth)
          << "honest reply differs from a fresh execution at version "
          << served << " (applied " << applied << ")";
      EXPECT_EQ(pledge.result_sha1, Sha1::Hash(reply->result));
      memo_hits_ += reused;
      return;
    }
    ++lies_;
    EXPECT_EQ(reused, 0u) << "a lie was served from the memo";
    EXPECT_NE(reply->result, truth);
    const bool consistent =
        after.consistent_lies_told > before.consistent_lies_told;
    EXPECT_EQ(pledge.result_sha1,
              Sha1::Hash(consistent ? reply->result : truth));
  }

  SlaveHarness h_;
  const Slave::Behavior attack_;
  bool attacking_ = true;
  Rng rng_;
  Signer slave_signer_;
  std::vector<DocumentStore> history_;  // content at each version
  std::vector<WriteBatch> batches_;     // batches_[v] makes version v
  std::optional<uint64_t> fork_;        // version of the frozen fork view
  std::optional<uint64_t> lag_;         // version of the lag view
  Query last_query_ = Query::Get("k0");
  uint64_t replies_checked_ = 0;
  uint64_t memo_hits_ = 0;
  uint64_t lies_ = 0;
};

TEST(SlaveMemoOracleTest, EveryReplyMatchesAFreshExecution) {
  struct Case {
    const char* name;
    Slave::Behavior behavior;
  };
  std::vector<Case> cases(7);
  cases[0].name = "honest";
  cases[1].name = "consistent_lies";
  cases[1].behavior.lie_probability = 0.3;
  cases[2].name = "inconsistent_lies";
  cases[2].behavior.inconsistent_lie_probability = 0.3;
  cases[3].name = "stale_pledge";
  cases[3].behavior.stale_pledge = true;
  cases[4].name = "fork_views";
  cases[4].behavior.fork_views = true;
  cases[5].name = "split_serve";
  cases[5].behavior.split_serve = true;
  cases[6].name = "ignore_updates";
  cases[6].behavior.ignore_updates = true;
  cases[6].behavior.serve_despite_stale = true;
  for (const Case& c : cases) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      MemoOracle oracle(c.behavior, seed);
      oracle.Run(600);
      EXPECT_GT(oracle.replies_checked(), 100u);
      EXPECT_GT(oracle.memo_hits(), 10u);
      if (c.behavior.lie_probability > 0 ||
          c.behavior.inconsistent_lie_probability > 0) {
        EXPECT_GT(oracle.lies(), 10u);
      }
    }
  }
}

// A slave that answers every read with a non-canonical encoding of the
// honest result (a different one each time) and pledges the SHA-1 of
// exactly those bytes under a valid token and its own key.
class NonCanonicalSlave : public Node {
 public:
  NonCanonicalSlave(const KeyPair& key, DocumentStore base)
      : signer_(key), store_(std::move(base)) {}

  void HandleMessage(NodeId from, const Payload& payload) override {
    auto type = PeekType(payload);
    BytesView body = BytesView(payload).substr(1);
    if (!type.ok()) {
      return;
    }
    if (*type == MsgType::kKeepAlive) {
      auto msg = KeepAlive::Decode(body);
      if (msg.ok()) {
        token_ = msg->token;
      }
    } else if (*type == MsgType::kReadRequest && token_.has_value()) {
      auto msg = ReadRequest::Decode(body);
      auto outcome = QueryExecutor().Execute(store_, msg->query);
      Bytes bytes = outcome->result.Encode();
      switch (served_++ % 4) {
        case 0:
          bytes.push_back(0);  // a trailing byte
          break;
        case 1:
          bytes[0] = 3;  // an unknown result type
          break;
        case 2:
          bytes.back() = 2;  // a bool that is neither 0 nor 1
          break;
        default:
          bytes[1] += 1;  // one row more than the bytes hold
          break;
      }
      ReadReply reply;
      reply.request_id = msg->request_id;
      reply.trace_id = msg->trace_id;
      reply.ok = true;
      reply.pledge = MakePledge(signer_, id(), msg->query, Sha1::Hash(bytes),
                                *token_);
      reply.result = std::move(bytes);
      env()->Send(from, WithType(MsgType::kReadReply, reply.Encode()));
    }
  }

  uint64_t served() const { return served_; }

 private:
  Signer signer_;
  DocumentStore store_;
  std::optional<VersionToken> token_;
  uint64_t served_ = 0;
};

TEST(ClientUnitTest, NeverDeliversAResultPledgedOverNonCanonicalBytes) {
  Simulator sim(1);
  Network net(&sim, LinkModel{1 * kMillisecond, 0, 0.0});
  DeploymentConfig config;
  config.slaves_per_master = 1;
  config.params.scheme = SignatureScheme::kHmacSha256;
  DeploymentPlan plan = BuildDeployment(config);
  Directory directory;
  directory.Publish(plan.content.content_public_key, plan.master_certs);
  Master master(MasterOptionsFor(plan, 0));
  master.AddSlave(plan.slave_certs[0]);
  master.SetBaseContent(plan.base);
  SinkNode auditor;
  NonCanonicalSlave slave(plan.slave_keys[0], plan.base);
  Client client(ClientOptionsFor(plan, 0, Client::LoadMode::kManual));
  // Node ids follow the deployment roster.
  net.AddNode(&directory);
  net.AddNode(&master);
  net.AddNode(&auditor);
  net.AddNode(&slave);
  net.AddNode(&client);
  ASSERT_EQ(slave.id(), plan.slave_ids[0]);
  ASSERT_EQ(client.id(), plan.client_ids[0]);
  net.StartAll();
  sim.RunUntil(sim.Now() + 2 * config.params.keepalive_period);
  ASSERT_TRUE(client.ready());
  ASSERT_EQ(client.read_set().size(), 1u);
  ASSERT_EQ(client.read_set()[0].cert.subject, slave.id());

  int delivered = 0;
  int failed = 0;
  client.on_accept = [&delivered](const Query&, const Pledge&,
                                  const QueryResult&) { ++delivered; };
  client.IssueRead(Query::Get(ItemKey(0)),
                   [&failed](bool accepted, const QueryResult&) {
                     failed += accepted ? 0 : 1;
                   });
  sim.RunUntil(sim.Now() + 10 * kSecond);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failed, 1);  // every retry was rejected, then the read failed
  EXPECT_GE(slave.served(), 4u);  // each kind of non-canonical bytes
  EXPECT_EQ(client.metrics().reads_rejected_hash, slave.served());
  EXPECT_EQ(client.metrics().reads_accepted, 0u);
}

// A client wired as in a k=3 deployment with four slaves, whose master's
// roster slot is a stub: the test delivers "master" frames itself. Each
// world is fresh, so the client's hello nonce is the same every time.
struct AssignmentWorld {
  explicit AssignmentWorld(const DeploymentPlan& plan)
      : sim(1),
        net(&sim, LinkModel{1 * kMillisecond, 0, 0.0}),
        client(ClientOptionsFor(plan, 0, Client::LoadMode::kManual)) {
    directory.Publish(plan.content.content_public_key, plan.master_certs);
    net.AddNode(&directory);
    net.AddNode(&master_stub);
    net.AddNode(&auditor_stub);
    for (SinkNode& slave : slave_stubs) {
      net.AddNode(&slave);
    }
    net.AddNode(&client);
    net.StartAll();
    Run();  // directory lookup, then the hello to the master stub
  }

  void Run() { sim.RunUntil(sim.Now() + 5 * kMillisecond); }
  void Deliver(const Bytes& frame) {
    net.Send(master_stub.id(), client.id(), frame);
    Run();
  }

  Simulator sim;
  Network net;
  Directory directory;
  SinkNode master_stub, auditor_stub;
  SinkNode slave_stubs[4];
  Client client;
};

Bytes FirstFrameOfType(const SinkNode& node, MsgType type) {
  for (const auto& [from, payload] : node.received) {
    auto t = PeekType(payload);
    if (t.ok() && *t == type) {
      return payload;
    }
  }
  return {};
}

// Genuine assignment frames from a plan-built master: the hello reply for
// the AssignmentWorld client's nonce, and the four reassignments that
// follow as the first member of the current set is excluded each time:
// [A B C] -> [B C D] -> [C D] -> [D] -> [].
struct CapturedAssignments {
  DeploymentPlan plan;
  Bytes hello_reply;
  std::vector<AssignedSlave> hello_set;
  std::vector<Bytes> moves;
  std::vector<std::vector<AssignedSlave>> move_sets;
};

CapturedAssignments CaptureAssignments() {
  CapturedAssignments c;
  DeploymentConfig config;
  config.slaves_per_master = 4;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.read_fanout = 3;
  c.plan = BuildDeployment(config);

  // The master is added after the roster: it answers the client's hello
  // (relayed from the stub) to a capture node, then excludes slaves of
  // that read set on forged-result pledges they signed.
  AssignmentWorld world(c.plan);
  Master master(MasterOptionsFor(c.plan, 0));
  SinkNode capture;
  world.net.AddNode(&master);
  world.net.AddNode(&capture);
  for (const Certificate& cert : c.plan.slave_certs) {
    master.AddSlave(cert);
  }
  master.SetBaseContent(c.plan.base);
  master.Start();
  world.net.Send(capture.id(), master.id(),
                 FirstFrameOfType(world.master_stub, MsgType::kClientHello));
  world.Run();
  c.hello_reply = FirstFrameOfType(capture, MsgType::kClientHelloReply);
  c.hello_set =
      ClientHelloReply::Decode(BytesView(c.hello_reply).substr(1))->slaves;

  VersionToken token = MakeVersionToken(Signer(c.plan.master_keys[0]),
                                        c.plan.master_ids[0], 0,
                                        world.sim.Now());
  for (size_t i = 0; i < 4; ++i) {
    const NodeId liar =
        (i == 0 ? c.hello_set : c.move_sets.back())[0].cert.subject;
    Accusation accusation;
    accusation.pledge =
        MakePledge(Signer(c.plan.slave_keys[c.plan.RoleIndexOf(liar)]), liar,
                   Query::Get(ItemKey(0)), Bytes(20, 0xee), token);
    capture.received.clear();
    world.net.Send(capture.id(), master.id(),
                   WithType(MsgType::kAccusation, accusation.Encode()));
    world.Run();
    EXPECT_TRUE(master.IsExcluded(liar));
    c.moves.push_back(FirstFrameOfType(capture, MsgType::kReassignment));
    c.move_sets.push_back(
        Reassignment::Decode(BytesView(c.moves.back()).substr(1))->slaves);
  }
  return c;
}

TEST(ClientUnitTest, ANewerReadSetWinsOverAnOlderOneArrivingLate) {
  const CapturedAssignments c = CaptureAssignments();
  ASSERT_EQ(c.hello_set.size(), 3u);
  ASSERT_EQ(c.move_sets[0].size(), 3u);  // the fourth slave fills the gap
  ASSERT_EQ(c.move_sets[1].size(), 2u);  // none left: the set shrinks
  for (bool reordered : {false, true}) {
    AssignmentWorld world(c.plan);
    world.Deliver(c.hello_reply);
    ASSERT_TRUE(world.client.ready());
    EXPECT_EQ(world.client.read_set(), c.hello_set);
    world.Deliver(c.moves[reordered ? 1 : 0]);
    world.Deliver(c.moves[reordered ? 0 : 1]);
    EXPECT_EQ(world.client.read_set(), c.move_sets[1]) << reordered;
    EXPECT_EQ(world.client.metrics().reassignments, reordered ? 1u : 2u);
  }
}

TEST(ClientRobustness, MutatedAssignmentsAdoptOnlyTheSignedSet) {
  const CapturedAssignments c = CaptureAssignments();
  const std::vector<Bytes> frames = {c.hello_reply, c.moves[0]};
  const std::vector<std::vector<AssignedSlave>> signed_sets = {
      c.hello_set, c.move_sets[0]};
  std::vector<Bytes> bodies;
  for (const Bytes& frame : frames) {
    bodies.emplace_back(frame.begin() + 1, frame.end());
  }
  Rng rng(67);
  uint64_t adopted = 0;
  for (int i = 0; i < 20000 && !::testing::Test::HasFailure(); ++i) {
    const size_t which = rng.NextBounded(frames.size());
    const Bytes mutant =
        WithType(static_cast<MsgType>(frames[which][0]),
                 Mutate(bodies[which], rng, bodies));

    AssignmentWorld setting_up(c.plan);
    setting_up.Deliver(mutant);
    if (!setting_up.client.read_set().empty()) {
      ++adopted;
      EXPECT_EQ(setting_up.client.read_set(), signed_sets[which])
          << "mutant " << i << " during setup";
    }

    AssignmentWorld ready(c.plan);
    ready.Deliver(c.hello_reply);
    ASSERT_TRUE(ready.client.ready());
    ready.Deliver(mutant);
    EXPECT_TRUE(ready.client.ready());
    if (ready.client.read_set() != c.hello_set) {
      ++adopted;
      EXPECT_EQ(ready.client.read_set(), c.move_sets[0])
          << "mutant " << i << " when ready";
    }
  }
  // Edits to the reassignment's unsigned trace id leave its signed set
  // intact, so some mutants are adopted and the checks are not vacuous.
  EXPECT_GT(adopted, 50u);
}

TEST(ClientUnitTest, AReassignmentOvertakingTheHelloReplyKeepsTheNewerSet) {
  const CapturedAssignments c = CaptureAssignments();
  AssignmentWorld world(c.plan);
  world.Deliver(c.moves[0]);
  world.Deliver(c.hello_reply);
  EXPECT_TRUE(world.client.ready());
  EXPECT_EQ(world.client.metrics().setups_completed, 1u);
  EXPECT_EQ(world.client.read_set(), c.move_sets[0]);
}

// Drives one read of an AssignmentWorld client by hand: the test plays
// every slave of the read set and the master.
struct ReadDriver {
  ReadDriver(const CapturedAssignments& c, AssignmentWorld& world)
      : c(c), world(world) {
    world.Deliver(c.hello_reply);
    EXPECT_TRUE(world.client.ready());
    world.client.IssueRead(query, [this](bool ok, const QueryResult& r) {
      (ok ? accepted : failed).push_back(r);
    });
    world.Run();
  }

  // The ReadRequest frames `slave` has been sent so far.
  size_t RequestsTo(NodeId slave) const {
    size_t n = 0;
    for (const SinkNode& stub : world.slave_stubs) {
      for (const auto& [from, payload] : stub.received) {
        auto t = PeekType(payload);
        n += stub.id() == slave && t.ok() && *t == MsgType::kReadRequest;
      }
    }
    return n;
  }
  uint64_t request_id() const {
    for (const SinkNode& stub : world.slave_stubs) {
      const Bytes frame = FirstFrameOfType(stub, MsgType::kReadRequest);
      if (!frame.empty()) {
        return ReadRequest::Decode(BytesView(frame).substr(1))->request_id;
      }
    }
    return 0;
  }

  // `slave` answers with `result` under a fresh token and its own pledge.
  void Answer(NodeId slave, const QueryResult& result) {
    const Bytes bytes = result.Encode();
    ReadReply reply;
    reply.request_id = request_id();
    reply.ok = true;
    reply.pledge = MakePledge(
        Signer(c.plan.slave_keys[c.plan.RoleIndexOf(slave)]), slave, query,
        Sha1::Hash(bytes),
        MakeVersionToken(Signer(c.plan.master_keys[0]), c.plan.master_ids[0],
                         0, world.sim.Now()));
    reply.result = bytes;
    world.net.Send(slave, world.client.id(),
                   WithType(MsgType::kReadReply, reply.Encode()));
    world.Run();
  }

  // The master answers the client's double-check: served, with `correct`.
  void MasterAnswers(const QueryResult& correct, bool matches) {
    DoubleCheckReply reply;
    reply.request_id = request_id();
    reply.served = true;
    reply.matches = matches;
    reply.correct_result = correct.Encode();
    world.Deliver(WithType(MsgType::kDoubleCheckReply, reply.Encode()));
  }

  size_t double_checks() const {
    size_t n = 0;
    for (const auto& [from, payload] : world.master_stub.received) {
      auto t = PeekType(payload);
      n += t.ok() && *t == MsgType::kDoubleCheckRequest;
    }
    return n;
  }

  void RunFor(SimTime d) { world.sim.RunUntil(world.sim.Now() + d); }

  const CapturedAssignments& c;
  AssignmentWorld& world;
  const Query query = Query::Get(ItemKey(0));
  const QueryResult honest{QueryResult::Type::kRows, {{"item", "honest"}}};
  const QueryResult lie{QueryResult::Type::kRows, {{"item", "lie"}}};
  const QueryResult other_lie{QueryResult::Type::kRows, {{"item", "other"}}};
  std::vector<QueryResult> accepted, failed;
};

TEST(ClientUnitTest, AReassignmentRestartsTheReadOnTheNewSet) {
  // The two slaves the master goes on to exclude answer with one lie; the
  // set without them arrives before the honest member's answer. The lies
  // in hand came from the old set and must not settle the read.
  const CapturedAssignments c = CaptureAssignments();
  AssignmentWorld world(c.plan);
  ReadDriver read(c, world);
  const NodeId liar_a = c.hello_set[0].cert.subject;
  const NodeId liar_b = c.hello_set[1].cert.subject;
  const NodeId honest_c = c.hello_set[2].cert.subject;
  const std::vector<AssignedSlave>& new_set = c.move_sets[1];
  ASSERT_EQ(new_set.size(), 2u);
  ASSERT_EQ(new_set[0].cert.subject, honest_c);
  const NodeId newcomer = new_set[1].cert.subject;
  read.Answer(liar_a, read.lie);
  read.Answer(liar_b, read.lie);
  world.Deliver(c.moves[1]);
  ASSERT_EQ(world.client.read_set(), new_set);
  // The restart sends the read to the whole new set, the newcomer too,
  // and is no retry.
  EXPECT_EQ(read.RequestsTo(honest_c), 2u);
  EXPECT_EQ(read.RequestsTo(newcomer), 1u);
  EXPECT_EQ(world.client.metrics().retries, 0u);
  read.Answer(honest_c, read.honest);
  read.Answer(newcomer, read.honest);
  // A sampled double-check of the agreed answer goes unanswered by the
  // stub master; the answer is then accepted.
  read.RunFor(2 * ProtocolParams{}.client_timeout);
  ASSERT_EQ(read.accepted.size(), 1u);
  EXPECT_EQ(read.accepted[0], read.honest);
  EXPECT_EQ(world.client.metrics().fanout_disagreements, 0u);
}

TEST(ClientUnitTest, RepliesStragglingInDuringABackoffAreIgnored) {
  // Two members disagree and the third is slow. At the timeout the client
  // double-checks; the master's result matches neither, so the read backs
  // off to retry. The slow member's reply to the failed attempt lands in
  // the back-off and must not reopen it.
  const CapturedAssignments c = CaptureAssignments();
  AssignmentWorld world(c.plan);
  ReadDriver read(c, world);
  const NodeId a = c.hello_set[0].cert.subject;
  const NodeId b = c.hello_set[1].cert.subject;
  const NodeId slow = c.hello_set[2].cert.subject;
  read.Answer(a, read.lie);
  read.Answer(b, read.other_lie);
  read.RunFor(ProtocolParams{}.client_timeout);
  ASSERT_EQ(read.double_checks(), 1u);
  read.MasterAnswers(read.honest, /*matches=*/false);
  EXPECT_EQ(world.client.metrics().accusations_sent, 1u);
  read.Answer(slow, read.honest);  // inside the 200 ms back-off
  EXPECT_EQ(read.double_checks(), 1u);
  EXPECT_EQ(read.RequestsTo(slow), 1u);
  read.RunFor(250 * kMillisecond);  // the back-off ends: attempt 2 is out
  EXPECT_EQ(read.RequestsTo(slow), 2u);
  // A stray double-check reply now belongs to no double-check in flight.
  read.MasterAnswers(read.honest, /*matches=*/true);
  EXPECT_TRUE(read.accepted.empty());
  EXPECT_TRUE(read.failed.empty());
  for (const AssignedSlave& member : c.hello_set) {
    read.Answer(member.cert.subject, read.honest);
  }
  read.RunFor(2 * ProtocolParams{}.client_timeout);
  ASSERT_EQ(read.accepted.size(), 1u);
  EXPECT_EQ(read.accepted[0], read.honest);
}

TEST(ClientUnitTest, AnEmptiedReadSetParksTheReadAndSetsUpAgain) {
  // Every member the client was ever given is excluded in turn. The empty
  // set's reassignment must stop the read going to excluded slaves and
  // start a new setup; the read then waits for a set, and no attempt of it
  // times out or fails.
  const CapturedAssignments c = CaptureAssignments();
  ASSERT_EQ(c.move_sets.size(), 4u);
  ASSERT_TRUE(c.move_sets[3].empty());
  AssignmentWorld world(c.plan);
  ReadDriver read(c, world);
  auto hellos = [&world] {
    size_t n = 0;
    for (const auto& [from, payload] : world.master_stub.received) {
      auto t = PeekType(payload);
      n += t.ok() && *t == MsgType::kClientHello;
    }
    return n;
  };
  ASSERT_EQ(hellos(), 1u);
  for (const Bytes& move : c.moves) {
    world.Deliver(move);
  }
  EXPECT_EQ(world.client.metrics().reassignments, 4u);
  EXPECT_TRUE(world.client.read_set().empty());
  EXPECT_FALSE(world.client.ready());
  EXPECT_EQ(hellos(), 2u);  // a new setup, via the directory
  size_t requests = 0;
  for (const SinkNode& stub : world.slave_stubs) {
    requests += read.RequestsTo(stub.id());
  }
  read.RunFor(5 * ProtocolParams{}.client_timeout);
  size_t later = 0;
  for (const SinkNode& stub : world.slave_stubs) {
    later += read.RequestsTo(stub.id());
  }
  EXPECT_EQ(later, requests);
  EXPECT_EQ(world.client.metrics().reads_timed_out, 0u);
  EXPECT_TRUE(read.accepted.empty());
  EXPECT_TRUE(read.failed.empty());
  // The stub master never answers, so setup keeps starting over.
  EXPECT_GT(hellos(), 2u);
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
