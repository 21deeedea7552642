// Tests for the Section 4 variants: the multi-slave (collusion-forcing)
// read client and per-read security levels via double-check probability.
#include <gtest/gtest.h>

#include "src/core/cluster.h"
#include "src/core/multiread_client.h"

namespace sdr {
namespace {

struct VariantHarness {
  VariantHarness(int k, int colluders, uint64_t seed,
                 double double_check_p = 0.02) {
    ClusterConfig config;
    config.seed = seed;
    config.num_masters = 1;
    config.slaves_per_master = k;
    config.num_clients = 0;
    config.corpus.n_items = 60;
    config.params.scheme = SignatureScheme::kHmacSha256;
    config.params.double_check_probability = double_check_p;
    config.slave_behavior = [colluders](int index) {
      Slave::Behavior b;
      if (index < colluders) {
        b.lie_probability = 1.0;  // deterministic corruption: they collude
      }
      return b;
    };
    config.track_ground_truth = false;
    cluster = std::make_unique<Cluster>(std::move(config));

    MultiReadClient::Options opts;
    opts.params = cluster->config().params;
    opts.slave_certs = cluster->master(0).my_slave_certs();
    opts.master_keys = {
        {cluster->master(0).id(), cluster->master(0).public_key()}};
    opts.master = cluster->master(0).id();
    opts.auditor = cluster->auditor().id();
    client = std::make_unique<MultiReadClient>(opts);
    cluster->net().AddNode(client.get());
    client->Start();

    truth = std::make_unique<QueryExecutor>();
    client->on_accept = [this](const Query& query, uint64_t version,
                               const QueryResult& result) {
      auto store = cluster->master(0).oplog().MaterializeAt(version);
      ASSERT_TRUE(store.ok());
      auto expected = truth->Execute(*store, query);
      ASSERT_TRUE(expected.ok());
      if (!(expected->result == result)) {
        ++wrong;
      }
    };
    cluster->RunFor(2 * kSecond);  // arm keep-alives
  }

  void DoReads(int n) {
    for (int i = 0; i < n; ++i) {
      client->IssueRead(Query::Get(ItemKey(static_cast<size_t>(i % 60))));
      cluster->RunFor(200 * kMillisecond);
    }
    cluster->RunFor(5 * kSecond);
  }

  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<MultiReadClient> client;
  std::unique_ptr<QueryExecutor> truth;
  int wrong = 0;
};

TEST(MultiReadTest, HonestSlavesUnanimous) {
  VariantHarness h(3, 0, 1);
  h.DoReads(30);
  EXPECT_EQ(h.client->metrics().reads_accepted, 30u);
  EXPECT_EQ(h.client->metrics().disagreements, 0u);
  EXPECT_EQ(h.wrong, 0);
}

TEST(MultiReadTest, OneLiarAmongThreeForcesDoubleCheckAndLoses) {
  VariantHarness h(3, 1, 2);
  h.DoReads(30);
  const auto& m = h.client->metrics();
  EXPECT_GT(m.disagreements, 0u);
  EXPECT_GT(m.double_checks_sent, 0u);
  EXPECT_GT(m.accusations_sent, 0u);
  EXPECT_EQ(h.wrong, 0);
  EXPECT_GE(h.cluster->master(0).metrics().slaves_excluded, 1u);
  // Reads still complete (via remaining honest slaves / master truth).
  EXPECT_EQ(m.reads_accepted, 30u);
}

TEST(MultiReadTest, MinorityCollusionStillCaught) {
  VariantHarness h(5, 2, 3);
  h.DoReads(30);
  EXPECT_EQ(h.wrong, 0);
  EXPECT_GE(h.cluster->master(0).metrics().slaves_excluded, 2u);
}

TEST(MultiReadTest, FullCollusionDefeatsTheVariant) {
  // If ALL k slaves lie identically, unanimity hides the lie from the
  // fan-out; only the sampled double-check can catch it — the paper's
  // stated limit of the variant.
  VariantHarness h(3, 3, 4, /*double_check_p=*/0.0);
  h.DoReads(30);
  EXPECT_GT(h.wrong, 0);
  EXPECT_EQ(h.client->metrics().disagreements, 0u);
}

TEST(MultiReadTest, DeclinedSlaveDoesNotStallReads) {
  VariantHarness h(3, 1, 5);
  h.DoReads(10);  // gets the liar excluded
  ASSERT_GE(h.cluster->master(0).metrics().slaves_excluded, 1u);
  // Subsequent reads resolve from the two live slaves + a decline, well
  // inside the client timeout.
  uint64_t before = h.client->metrics().reads_accepted;
  SimTime start = h.cluster->sim().Now();
  h.client->IssueRead(Query::Get(ItemKey(1)));
  h.cluster->RunFor(1 * kSecond);
  EXPECT_EQ(h.client->metrics().reads_accepted, before + 1);
  EXPECT_LT(h.cluster->sim().Now() - start, 2 * kSecond);
}

// Stands in for the master: keeps the double-check requests it gets.
class MasterStub : public Node {
 public:
  void HandleMessage(NodeId /*from*/, const Payload& payload) override {
    received.push_back(payload.ToBytes());
  }
  std::vector<Bytes> received;
};

TEST(MultiReadTest, MalformedDoubleCheckResultFailsTheReadAndAccusesNoOne) {
  ClusterConfig config;
  config.seed = 7;
  config.num_masters = 1;
  config.slaves_per_master = 2;
  config.num_clients = 0;
  config.corpus.n_items = 60;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.track_ground_truth = false;
  Cluster cluster(config);
  MasterStub master_stub;
  cluster.net().AddNode(&master_stub);

  MultiReadClient::Options opts;
  opts.params = config.params;
  opts.params.double_check_probability = 1.0;
  opts.slave_certs = cluster.master(0).my_slave_certs();
  opts.master_keys = {
      {cluster.master(0).id(), cluster.master(0).public_key()}};
  opts.master = master_stub.id();  // every read double-checks with the stub
  opts.auditor = cluster.auditor().id();
  MultiReadClient client(opts);
  cluster.net().AddNode(&client);
  client.Start();
  cluster.RunFor(2 * kSecond);  // arm keep-alives

  int failed = 0;
  client.IssueRead(Query::Get(ItemKey(1)),
                   [&failed](bool ok, const QueryResult&) {
                     failed += ok ? 0 : 1;
                   });
  cluster.RunFor(200 * kMillisecond);
  ASSERT_EQ(master_stub.received.size(), 1u);
  auto dc = DoubleCheckRequest::Decode(
      BytesView(master_stub.received[0]).substr(1));
  ASSERT_TRUE(dc.ok());
  // A served, mismatching reply whose result is not a result encoding
  // (one trailing byte): it must convict no slave.
  DoubleCheckReply reply;
  reply.request_id = dc->request_id;
  reply.trace_id = dc->trace_id;
  reply.served = true;
  reply.correct_result.push_back(0);
  cluster.net().Send(master_stub.id(), client.id(),
                     WithType(MsgType::kDoubleCheckReply, reply.Encode()));
  cluster.RunFor(200 * kMillisecond);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(client.metrics().reads_failed, 1u);
  EXPECT_EQ(client.metrics().accusations_sent, 0u);
  EXPECT_EQ(master_stub.received.size(), 1u);  // no accusation sent
}

TEST(SecurityLevelTest, SensitiveReadsNeverAcceptLies) {
  // p=1.0 (the "execute only on trusted hosts" end of the dial): with every
  // slave lying and exclusion disabled, the sensitive client still never
  // accepts a wrong answer.
  ClusterConfig config;
  config.seed = 6;
  config.num_masters = 1;
  config.slaves_per_master = 2;
  config.num_clients = 1;
  config.corpus.n_items = 40;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.double_check_probability = 1.0;
  config.params.exclusion_enabled = false;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 50 * kMillisecond;
  config.slave_behavior = [](int) {
    Slave::Behavior b;
    b.lie_probability = 1.0;
    return b;
  };
  Cluster cluster(config);
  cluster.RunFor(30 * kSecond);
  EXPECT_GT(cluster.client(0).metrics().double_check_mismatches, 100u);
  EXPECT_EQ(cluster.accepted_wrong(), 0u);
}

}  // namespace
}  // namespace sdr
