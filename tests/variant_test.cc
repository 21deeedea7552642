// Tests for the Section 4 variants: the multi-slave (collusion-forcing)
// read fan-out of Client (ProtocolParams::read_fanout) and per-read
// security levels via double-check probability.
#include <gtest/gtest.h>

#include "src/core/cluster.h"

namespace sdr {
namespace {

// One master with k slaves, the first `colluders` of them lying
// identically on every read, and one manual-mode client whose read set is
// all k. Ground truth is the cluster's.
struct FanoutHarness {
  FanoutHarness(int k, int colluders, uint64_t seed,
                double double_check_p = 0.02,
                std::function<void(ClusterConfig&)> tweak = nullptr) {
    ClusterConfig config;
    config.seed = seed;
    config.num_masters = 1;
    config.slaves_per_master = k;
    config.num_clients = 1;
    config.corpus.n_items = 60;
    config.params.scheme = SignatureScheme::kHmacSha256;
    config.params.double_check_probability = double_check_p;
    config.params.read_fanout = static_cast<uint32_t>(k);
    config.slave_behavior = [colluders](int index) {
      Slave::Behavior b;
      if (index < colluders) {
        b.lie_probability = 1.0;  // deterministic corruption: they collude
      }
      return b;
    };
    if (tweak) {
      tweak(config);
    }
    cluster = std::make_unique<Cluster>(std::move(config));
    cluster->RunFor(2 * kSecond);  // setup; keep-alives arm the slaves
  }

  Client& client() { return cluster->client(0); }
  const ClientMetrics& metrics() { return client().metrics(); }

  void DoReads(int n) {
    for (int i = 0; i < n; ++i) {
      client().IssueRead(Query::Get(ItemKey(static_cast<size_t>(i % 60))));
      cluster->RunFor(200 * kMillisecond);
    }
    cluster->RunFor(5 * kSecond);
  }

  std::unique_ptr<Cluster> cluster;
};

TEST(ReadFanoutTest, SetupAssignsTheWholeReadSet) {
  FanoutHarness h(3, 0, 1);
  ASSERT_TRUE(h.client().ready());
  EXPECT_EQ(h.client().read_set().size(), 3u);
}

TEST(ReadFanoutTest, HonestSlavesAgree) {
  FanoutHarness h(3, 0, 1);
  h.DoReads(30);
  EXPECT_EQ(h.metrics().reads_accepted, 30u);
  EXPECT_EQ(h.metrics().fanout_disagreements, 0u);
  EXPECT_EQ(h.cluster->accepted_wrong(), 0u);
}

TEST(ReadFanoutTest, HonestFanoutRepliesHitTheVerifyCache) {
  // The k replies to one read carry the same version token: after the
  // first, its verification is a cache hit.
  FanoutHarness h(3, 0, 1);
  h.DoReads(10);
  EXPECT_EQ(h.metrics().reads_accepted, 10u);
  EXPECT_GT(h.metrics().sig_cache_hits, 2 * h.metrics().reads_accepted);
}

TEST(ReadFanoutTest, OneLiarAmongThreeForcesDoubleCheckAndLoses) {
  FanoutHarness h(3, 1, 2);
  h.DoReads(30);
  const ClientMetrics& m = h.metrics();
  EXPECT_GT(m.fanout_disagreements, 0u);
  EXPECT_GT(m.double_checks_sent, 0u);
  // Convicted either by the double-checked pledge or by the client's
  // accusation of a held one.
  EXPECT_GT(m.double_check_mismatches + m.accusations_sent, 0u);
  EXPECT_EQ(h.cluster->accepted_wrong(), 0u);
  EXPECT_EQ(h.cluster->master(0).metrics().slaves_excluded, 1u);
  EXPECT_EQ(h.cluster->master(0).metrics().accusations_unfounded, 0u);
  // Reads still complete, from the honest members.
  EXPECT_EQ(m.reads_accepted, 30u);
  EXPECT_EQ(h.client().read_set().size(), 2u);
}

TEST(ReadFanoutTest, MinorityCollusionStillCaught) {
  FanoutHarness h(5, 2, 3);
  h.DoReads(30);
  const Master& master = h.cluster->master(0);
  EXPECT_EQ(h.cluster->accepted_wrong(), 0u);
  EXPECT_EQ(master.metrics().slaves_excluded, 2u);
  EXPECT_EQ(master.metrics().accusations_unfounded, 0u);
  // One disagreement convicts both: the double-check the first pledge,
  // the client's accusation the other liar's.
  EXPECT_EQ(h.metrics().fanout_disagreements, 1u);
  EXPECT_GE(h.metrics().accusations_sent, 1u);
  // Both exclusions reassign the client, and however the two
  // reassignments race, it ends on the set without either liar.
  EXPECT_EQ(h.client().read_set().size(), 3u);
  for (const AssignedSlave& slave : h.client().read_set()) {
    EXPECT_FALSE(master.IsExcluded(slave.cert.subject)) << slave.cert.subject;
  }
}

TEST(ReadFanoutTest, FullCollusionDefeatsTheVariant) {
  // If ALL k slaves lie identically, agreement hides the lie from the
  // fan-out; only the sampled double-check can catch it — the paper's
  // stated limit of the variant.
  FanoutHarness h(3, 3, 4, /*double_check_p=*/0.0);
  h.DoReads(30);
  EXPECT_GT(h.cluster->accepted_wrong(), 0u);
  EXPECT_EQ(h.metrics().fanout_disagreements, 0u);
}

TEST(ReadFanoutTest, DecliningMemberDoesNotStallReads) {
  // Slave 0 stops applying updates and, once a write has moved the others
  // on, declines for want of a fresh token; reads resolve from the two
  // answers plus its decline, well inside the client timeout.
  FanoutHarness h(3, 0, 5, 0.02, [](ClusterConfig& config) {
    config.slave_behavior = [](int index) {
      Slave::Behavior b;
      b.ignore_updates = index == 0;
      return b;
    };
  });
  bool committed = false;
  h.client().IssueWrite({WriteOp::Put("item/00001", "v2")},
                        [&](bool ok, uint64_t) { committed = ok; });
  h.cluster->RunFor(2 * h.cluster->config().params.max_latency);
  ASSERT_TRUE(committed);
  uint64_t before = h.metrics().reads_accepted;
  bool accepted = false;
  SimTime start = h.cluster->sim().Now();
  SimTime done = 0;
  h.client().IssueRead(Query::Get(ItemKey(1)),
                       [&](bool ok, const QueryResult&) {
                         accepted = ok;
                         done = h.cluster->sim().Now();
                       });
  h.cluster->RunFor(1 * kSecond);
  EXPECT_TRUE(accepted);
  EXPECT_EQ(h.metrics().reads_accepted, before + 1);
  EXPECT_GT(h.metrics().reads_failed_declined, 0u);
  EXPECT_LT(done - start, 500 * kMillisecond);
}

TEST(ReadFanoutTest, MalformedDoubleCheckResultFailsTheReadAndAccusesNoOne) {
  FanoutHarness h(2, 0, 7, /*double_check_p=*/1.0);
  Client& client = h.client();
  Master& master = h.cluster->master(0);
  ASSERT_TRUE(client.ready());
  // Every message from the client to its master is lost from here on, so
  // the master never answers the double-check; the test answers it.
  h.cluster->net().SetLink(client.id(), master.id(),
                           LinkModel{5 * kMillisecond, 0, 1.0});
  int failed = 0;
  client.IssueRead(Query::Get(ItemKey(1)),
                   [&failed](bool ok, const QueryResult&) {
                     failed += ok ? 0 : 1;
                   });
  h.cluster->RunFor(200 * kMillisecond);
  ASSERT_EQ(client.metrics().double_checks_sent, 1u);
  ASSERT_EQ(h.cluster->net().messages_dropped_loss(), 1u);
  // A served, mismatching reply whose result is not a result encoding
  // (one trailing byte): it must convict no slave. The client's first
  // read has request id 1.
  DoubleCheckReply reply;
  reply.request_id = 1;
  reply.trace_id = MintTraceId(client.id(), 1);
  reply.served = true;
  reply.correct_result.push_back(0);
  h.cluster->net().Send(master.id(), client.id(),
                        WithType(MsgType::kDoubleCheckReply, reply.Encode()));
  h.cluster->RunFor(200 * kMillisecond);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(client.metrics().reads_accepted, 0u);
  EXPECT_EQ(client.metrics().accusations_sent, 0u);
  EXPECT_EQ(h.cluster->net().messages_dropped_loss(), 1u);  // no accusation
}

TEST(ReadFanoutTest, UnservedDoubleCheckNeverSettlesADisagreement) {
  // Greedy policing with a burst of 1 and no refill: the first
  // disagreement's double-check is served, every later one is not. With
  // exclusion off the liar stays in the set, so the second read keeps
  // disagreeing and must fail rather than be accepted unserved.
  FanoutHarness h(2, 1, 8, 0.02, [](ClusterConfig& config) {
    config.params.greedy_policing_enabled = true;
    config.params.greedy_burst = 1.0;
    config.params.greedy_refill_per_second = 0.0;
    config.params.exclusion_enabled = false;
    config.tweak_client = [](int, Client::Options& opts) {
      opts.max_read_retries = 2;
    };
  });
  std::vector<int> verdicts;  // 1 accepted, 0 failed
  for (int i = 0; i < 2; ++i) {
    h.client().IssueRead(Query::Get(ItemKey(static_cast<size_t>(i))),
                         [&](bool ok, const QueryResult&) {
                           verdicts.push_back(ok ? 1 : 0);
                         });
    h.cluster->RunFor(10 * kSecond);
  }
  EXPECT_EQ(verdicts, (std::vector<int>{1, 0}));
  EXPECT_GE(h.metrics().fanout_disagreements, 2u);
  EXPECT_GT(h.metrics().double_checks_unserved, 0u);
  EXPECT_EQ(h.metrics().reads_accepted, 1u);
  EXPECT_EQ(h.cluster->accepted_wrong(), 0u);
}

TEST(ReadFanoutTest, ShardedFanoutAcceptsNoWrongAnswerAndExcludesTheLiar) {
  // Two shards, each one master with two slaves and a read set of both;
  // shard 1's first slave (global index 2) lies on every read.
  ClusterConfig config;
  config.seed = 9;
  config.num_shards = 2;
  config.num_masters = 1;
  config.slaves_per_master = 2;
  config.num_clients = 1;
  config.corpus.n_items = 40;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.read_fanout = 2;
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    b.lie_probability = index == 2 ? 1.0 : 0.0;
    return b;
  };
  Cluster cluster(config);
  cluster.RunFor(3 * kSecond);
  ASSERT_TRUE(cluster.client(0).ready());

  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    // Whole-keyspace reads: one leg per shard, each fanned out to its
    // lane's read set.
    Query query = i % 2 == 0 ? Query::Aggregate(QueryKind::kCount)
                             : Query::Scan("", "", 10);
    cluster.client(0).IssueRead(query, [&](bool ok, const QueryResult&) {
      accepted += ok ? 1 : 0;
    });
    cluster.RunFor(300 * kMillisecond);
  }
  cluster.RunFor(5 * kSecond);
  const ClientMetrics& m = cluster.client(0).metrics();
  EXPECT_EQ(m.multi_shard_reads, 20u);
  EXPECT_EQ(accepted, 20);
  EXPECT_GT(m.fanout_disagreements, 0u);
  EXPECT_EQ(cluster.accepted_wrong(), 0u);
  EXPECT_GT(cluster.accepted_checked(), 0u);
  EXPECT_TRUE(cluster.ExcludedByAnyMaster(cluster.slave(2).id()));
  for (int i : {0, 1, 3}) {
    EXPECT_FALSE(cluster.ExcludedByAnyMaster(cluster.slave(i).id())) << i;
  }
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
