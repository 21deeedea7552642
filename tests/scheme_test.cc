// Parameterized sweep: the full protocol must behave identically under
// every signature scheme (Ed25519 / HMAC / Null) — the scheme only changes
// who could forge what in a real deployment, not the protocol logic — and
// under a range of cluster shapes.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "tests/mutate.h"

namespace sdr {
namespace {

class SchemeSweep : public ::testing::TestWithParam<SignatureScheme> {};

TEST_P(SchemeSweep, HonestClusterWorks) {
  ClusterConfig config;
  config.seed = 50;
  config.num_masters = 2;
  config.slaves_per_master = 2;
  config.num_clients = 3;
  config.corpus.n_items = 40;
  config.params.scheme = GetParam();
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 100 * kMillisecond;
  config.client_write_fraction = 0.05;
  Cluster cluster(config);
  cluster.RunFor(20 * kSecond);

  auto totals = cluster.ComputeTotals();
  EXPECT_GT(totals.clients.reads_accepted, 100u);
  EXPECT_GT(totals.clients.writes_committed, 0u);
  EXPECT_EQ(cluster.accepted_wrong(), 0u);
  EXPECT_EQ(totals.masters.slaves_excluded, 0u);
}

TEST_P(SchemeSweep, LiarCaughtUnderEveryScheme) {
  ClusterConfig config;
  config.seed = 51;
  config.num_masters = 1;
  config.slaves_per_master = 2;
  config.num_clients = 2;
  config.corpus.n_items = 40;
  config.params.scheme = GetParam();
  config.params.double_check_probability = 0.2;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 50 * kMillisecond;
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0) {
      b.lie_probability = 1.0;
    }
    return b;
  };
  Cluster cluster(config);
  cluster.RunFor(30 * kSecond);
  EXPECT_GE(cluster.ComputeTotals().masters.slaves_excluded, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeSweep,
                         ::testing::Values(SignatureScheme::kEd25519,
                                           SignatureScheme::kHmacSha256,
                                           SignatureScheme::kNull),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case SignatureScheme::kEd25519:
                               return "ed25519";
                             case SignatureScheme::kHmacSha256:
                               return "hmac_sha256";
                             case SignatureScheme::kNull:
                               return "null";
                           }
                           return "unknown";
                         });

struct Shape {
  int masters;
  int slaves_per_master;
  int clients;
};

class ShapeSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(ShapeSweep, ClusterServesCorrectlyAtEveryShape) {
  const Shape& shape = GetParam();
  ClusterConfig config;
  config.seed = 52;
  config.num_masters = shape.masters;
  config.slaves_per_master = shape.slaves_per_master;
  config.num_clients = shape.clients;
  config.corpus.n_items = 30;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 100 * kMillisecond;
  config.client_write_fraction = 0.03;
  Cluster cluster(config);
  cluster.RunFor(20 * kSecond);

  auto totals = cluster.ComputeTotals();
  EXPECT_GT(totals.clients.reads_accepted, 0u);
  EXPECT_EQ(cluster.accepted_wrong(), 0u);
  // All masters converge to the same version.
  for (int m = 1; m < cluster.num_masters(); ++m) {
    EXPECT_EQ(cluster.master(m).version(), cluster.master(0).version()) << m;
  }
  // And to identical content.
  auto reference = cluster.master(0).oplog().head().Fingerprint();
  for (int m = 1; m < cluster.num_masters(); ++m) {
    EXPECT_EQ(cluster.master(m).oplog().head().Fingerprint(), reference) << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeSweep,
    ::testing::Values(Shape{1, 1, 1}, Shape{1, 4, 8}, Shape{3, 1, 3},
                      Shape{3, 3, 9}, Shape{5, 2, 6}),
    [](const auto& info) {
      std::ostringstream name;
      name << "m" << info.param.masters << "s"
           << info.param.slaves_per_master << "c" << info.param.clients;
      return name.str();
    });

// Property: decoders must reject every truncation of every message type
// without crashing (fed by the fuzz-ish sweep below).
TEST(MessageRobustness, TruncationsNeverCrashDecoders) {
  Rng rng(53);
  KeyPair kp = KeyPair::Generate(SignatureScheme::kHmacSha256, rng);
  Signer signer(kp);
  VersionToken token = MakeVersionToken(signer, 2, 3, 99);
  Pledge pledge =
      MakePledge(signer, 9, Query::Grep("a.*", "lo", "hi"), Bytes(20, 1), token);

  std::vector<Bytes> bodies;
  {
    ReadReply m;
    m.request_id = 1;
    m.ok = true;
    QueryResult result;
    result.type = QueryResult::Type::kRows;
    result.rows = {{"k", "v"}};
    m.result = result.Encode();
    m.pledge = pledge;
    bodies.push_back(m.Encode());
  }
  {
    StateUpdateBatch m;
    m.first_version = 2;
    m.batches = {{WriteOp::Put("a", "b")}, {WriteOp::Delete("c")}};
    m.token = token;
    m.commit = MakeBatchCommit(signer, 2, 2, 3, m.BatchesSha1(), 99);
    bodies.push_back(m.Encode());
  }
  {
    DoubleCheckReply m;
    m.request_id = 3;
    m.served = true;
    m.matches = false;
    bodies.push_back(m.Encode());
  }
  {
    BadReadNotice m;
    m.pledge = pledge;
    m.correct_sha1 = Bytes(20, 2);
    bodies.push_back(m.Encode());
  }
  std::vector<AssignedSlave> read_set;
  for (NodeId slave : {9u, 10u, 11u}) {
    read_set.push_back(
        {IssueCertificate(signer, slave, Role::kSlave, kp.public_key), 4});
  }
  {
    ClientHelloReply m;
    m.server_nonce = Bytes(16, 3);
    m.seq = 1;
    m.slaves = read_set;
    m.signature = signer.Sign(m.SignedBody(Bytes(16, 4)));
    bodies.push_back(m.Encode());
  }
  {
    Reassignment m;
    m.seq = 2;
    m.slaves = read_set;
    m.excluded_slave = 8;
    m.signature = signer.Sign(m.SignedBody());
    bodies.push_back(m.Encode());
  }

  for (const Bytes& body : bodies) {
    for (size_t cut = 0; cut < body.size(); ++cut) {
      Bytes truncated(body.begin(), body.begin() + static_cast<long>(cut));
      // Any of the decoders may be called on any payload; none may crash
      // and none may accept a strict prefix of a valid encoding.
      EXPECT_FALSE(ReadReply::Decode(truncated).ok());
      EXPECT_FALSE(StateUpdateBatch::Decode(truncated).ok());
      EXPECT_FALSE(DoubleCheckReply::Decode(truncated).ok());
      EXPECT_FALSE(BadReadNotice::Decode(truncated).ok());
      EXPECT_FALSE(Reassignment::Decode(truncated).ok());
      EXPECT_FALSE(ClientHelloReply::Decode(truncated).ok());
    }
  }
}

TEST(MessageRobustness, RandomBytesNeverCrashNodeDispatch) {
  // Throw random payloads at a live cluster's nodes; nothing may crash and
  // the protocol must keep functioning.
  ClusterConfig config;
  config.seed = 54;
  config.num_masters = 1;
  config.slaves_per_master = 1;
  config.num_clients = 1;
  config.corpus.n_items = 20;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 100 * kMillisecond;
  Cluster cluster(config);
  cluster.RunFor(3 * kSecond);

  Rng rng(55);
  NodeId attacker = cluster.client(0).id();
  std::vector<NodeId> targets = {cluster.master(0).id(),
                                 cluster.auditor().id(),
                                 cluster.slave(0).id(),
                                 cluster.client(0).id(),
                                 cluster.directory().id()};
  for (int i = 0; i < 500; ++i) {
    NodeId target = targets[rng.NextBounded(targets.size())];
    Bytes junk = rng.NextBytes(rng.NextBounded(120));
    cluster.net().Send(attacker, target, junk);
  }
  cluster.RunFor(10 * kSecond);
  auto totals = cluster.ComputeTotals();
  EXPECT_GT(totals.clients.reads_accepted, 0u);
  EXPECT_EQ(cluster.accepted_wrong(), 0u);
}

// Keeps every frame it receives.
class FrameSink : public Node {
 public:
  void HandleMessage(NodeId from, const Payload& payload) override {
    frames.emplace_back(from, payload.ToBytes());
  }
  std::vector<std::pair<NodeId, Bytes>> frames;
};

// Seeded mutations of ReadReply and DoubleCheckReply frames captured from
// a cluster run with lying slaves: no decoder may crash, and any reply
// VerifyRead accepts must parse as a result.
TEST(MessageRobustness, MutatedReadRepliesNeverPassUnparsable) {
  ClusterConfig config;
  config.seed = 56;
  config.corpus.n_items = 40;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.exclusion_enabled = false;  // the liars keep serving
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    b.lie_probability = index == 0 ? 0.3 : 0.0;
    b.inconsistent_lie_probability = index == 1 ? 0.3 : 0.0;
    return b;
  };
  Cluster cluster(config);
  FrameSink sink;
  cluster.net().AddNode(&sink);
  cluster.RunFor(2 * kSecond);

  // Capture: reads of every slave, then a double-check of every pledge.
  Rng rng(57);
  QueryMix mix;
  mix.n_items = config.corpus.n_items;
  uint64_t request_id = 1;
  for (int round = 0; round < 10; ++round) {
    for (int s = 0; s < cluster.num_slaves(); ++s) {
      ReadRequest req;
      req.request_id = request_id++;
      req.query = mix.Generate(rng);
      cluster.net().Send(sink.id(), cluster.slave(s).id(),
                         EncodeTyped(MsgType::kReadRequest, req));
    }
  }
  cluster.RunFor(500 * kMillisecond);
  std::vector<Pledge> pledges;
  for (const auto& [from, frame] : sink.frames) {
    auto reply = ReadReply::Decode(BytesView(frame).substr(1));
    if (reply.ok() && reply->ok) {
      pledges.push_back(reply->pledge);
    }
  }
  ASSERT_GT(pledges.size(), 20u);
  for (size_t i = 0; i < pledges.size(); ++i) {
    DoubleCheckRequest dc;
    dc.request_id = request_id++;
    dc.pledge = pledges[i];
    cluster.net().Send(sink.id(), cluster.master(i % 2).id(),
                       EncodeTyped(MsgType::kDoubleCheckRequest, dc));
  }
  cluster.RunFor(500 * kMillisecond);

  std::map<NodeId, Certificate> certs;
  for (int s = 0; s < cluster.num_slaves(); ++s) {
    Certificate& cert = certs[cluster.slave(s).id()];
    cert.subject = cluster.slave(s).id();
    cert.subject_public_key = cluster.slave(s).public_key();
  }
  std::map<NodeId, Bytes> master_keys;
  for (int m = 0; m < cluster.num_masters(); ++m) {
    master_keys[cluster.master(m).id()] = cluster.master(m).public_key();
  }
  std::vector<Bytes> corpus;
  std::vector<NodeId> senders;
  size_t mismatches = 0;
  for (const auto& [from, frame] : sink.frames) {
    auto type = PeekType(frame);
    ASSERT_TRUE(type.ok());
    Bytes body(frame.begin() + 1, frame.end());
    if (*type == MsgType::kDoubleCheckReply) {
      auto dc = DoubleCheckReply::Decode(body);
      ASSERT_TRUE(dc.ok());
      mismatches += dc->served && !dc->matches ? 1 : 0;
    }
    corpus.push_back(std::move(body));
    senders.push_back(from);
  }
  EXPECT_GT(mismatches, 0u);  // the corpus holds caught lies too

  uint64_t accepted = 0;
  uint64_t double_checks_decoded = 0;
  for (int i = 0; i < 50000; ++i) {
    size_t pick = rng.NextBounded(corpus.size());
    Bytes body = Mutate(corpus[pick], rng, corpus);
    auto reply = ReadReply::Decode(body);
    auto cert = certs.find(senders[pick]);
    if (reply.ok() && reply->ok && cert != certs.end()) {
      auto key = master_keys.find(reply->pledge.token.master);
      ReadVerdict verdict = VerifyRead(
          config.params.scheme, reply->result, reply->pledge, cert->second,
          key == master_keys.end() ? nullptr : &key->second,
          reply->pledge.token.timestamp, config.params.max_latency, nullptr);
      if (verdict == ReadVerdict::kAccepted) {
        ++accepted;
        EXPECT_TRUE(QueryResult::Decode(reply->result).ok());
      }
    }
    auto dc = DoubleCheckReply::Decode(body);
    if (dc.ok()) {
      ++double_checks_decoded;
      (void)QueryResult::Decode(dc->correct_result);
    }
  }
  // Edits to unsigned fields (request and trace ids) keep a reply valid,
  // so the check above is not vacuous.
  EXPECT_GT(accepted, 50u);
  EXPECT_GT(double_checks_decoded, 50u);
}

}  // namespace
}  // namespace sdr
