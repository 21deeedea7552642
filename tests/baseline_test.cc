// Tests for the two related-work baselines: state signing (Merkle-proof
// point reads, trusted-host dynamic queries) and SMR quorum reads.
#include <gtest/gtest.h>

#include "bench/baselines/smr_quorum.h"
#include "bench/baselines/state_signing.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/workload/workload.h"

namespace sdr {
namespace {

struct SsHarness {
  explicit SsHarness(uint64_t seed, int n_items = 50)
      : sim(seed), net(&sim, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.0}) {
    Rng rng(seed);
    KeyPair master_key = KeyPair::Generate(SignatureScheme::kEd25519, rng);

    SsMaster::Options mo;
    mo.key_pair = master_key;
    master = std::make_unique<SsMaster>(mo);
    net.AddNode(master.get());

    SsSlave::Options so;
    slave = std::make_unique<SsSlave>(so);
    net.AddNode(slave.get());
    master->AddSlave(slave->id());

    CorpusConfig corpus;
    corpus.n_items = static_cast<size_t>(n_items);
    content = BuildCatalogCorpus(corpus, rng);
    master->SetContent(content);
    MerkleTree tree = MerkleTree::Build(content);
    Signer signer(master_key);
    slave->SetContent(content, MakeSignedRoot(signer, tree.root(), 0, 0));

    SsClient::Options co;
    co.master_public_key = master_key.public_key;
    co.master = master->id();
    co.slave = slave->id();
    client = std::make_unique<SsClient>(co);
    net.AddNode(client.get());

    net.StartAll();
  }

  Simulator sim;
  Network net;
  DocumentStore content;
  std::unique_ptr<SsMaster> master;
  std::unique_ptr<SsSlave> slave;
  std::unique_ptr<SsClient> client;
};

TEST(StateSigningTest, PointReadVerifiedAtSlave) {
  SsHarness h(1);
  bool done = false;
  h.client->IssueRead(Query::Get(ItemKey(3)), [&](bool ok) {
    done = true;
    EXPECT_TRUE(ok);
  });
  h.sim.RunUntil(2 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(h.client->reads_accepted(), 1u);
  EXPECT_EQ(h.client->reads_to_slave(), 1u);
  EXPECT_EQ(h.client->reads_to_master(), 0u);
  EXPECT_EQ(h.client->proof_failures(), 0u);
}

TEST(StateSigningTest, DynamicQueryMustGoToTrustedMaster) {
  SsHarness h(2);
  h.client->IssueRead(Query::Grep("widget", "item/", "item0"));
  h.client->IssueRead(Query::Aggregate(QueryKind::kSum, "price/", "price0"));
  h.sim.RunUntil(2 * kSecond);
  EXPECT_EQ(h.client->reads_to_master(), 2u);
  EXPECT_EQ(h.master->dynamic_queries_served(), 2u);
  EXPECT_EQ(h.client->reads_accepted(), 2u);
  EXPECT_EQ(h.slave->point_reads_served(), 0u);
}

TEST(StateSigningTest, MissingKeyEscalatesToMaster) {
  SsHarness h(3);
  bool done = false;
  h.client->IssueRead(Query::Get("item/99999"), [&](bool ok) {
    done = true;
    EXPECT_TRUE(ok);
  });
  h.sim.RunUntil(2 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(h.client->reads_to_master(), 1u);  // escalation
}

TEST(StateSigningTest, WriteUpdatesRootAndProofsStillVerify) {
  SsHarness h(4);
  h.master->CommitWrite({WriteOp::Put(PriceKey(3), "777")});
  h.sim.RunUntil(2 * kSecond);
  bool got = false;
  h.client->IssueRead(Query::Get(PriceKey(3)), [&](bool ok) {
    got = true;
    EXPECT_TRUE(ok);
  });
  h.sim.RunUntil(4 * kSecond);
  EXPECT_TRUE(got);
  EXPECT_EQ(h.client->proof_failures(), 0u);
  EXPECT_EQ(h.master->version(), 1u);
}

TEST(StateSigningTest, TamperedSlaveContentFailsProof) {
  SsHarness h(5);
  // Maliciously alter the slave's content and tree: the forged tree root
  // will not match the master-signed root.
  DocumentStore tampered = h.content;
  tampered.Apply(WriteOp::Put(PriceKey(0), "1"));
  MerkleTree bad_tree = MerkleTree::Build(tampered);
  Rng rng(55);
  KeyPair fake = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer fake_signer(fake);
  h.slave->SetContent(tampered,
                      MakeSignedRoot(fake_signer, bad_tree.root(), 0, 0));
  bool callback_ok = true;
  h.client->IssueRead(Query::Get(PriceKey(0)),
                      [&](bool ok) { callback_ok = ok; });
  h.sim.RunUntil(2 * kSecond);
  EXPECT_EQ(h.client->proof_failures(), 1u);
  EXPECT_EQ(h.client->reads_accepted(), 0u);
}

struct QrHarness {
  QrHarness(uint64_t seed, int n_replicas, int f, int n_colluders)
      : sim(seed),
        net(&sim, LinkModel{5 * kMillisecond, 15 * kMillisecond, 0.0}) {
    Rng rng(seed);
    CorpusConfig corpus;
    corpus.n_items = 50;
    content = BuildCatalogCorpus(corpus, rng);

    QrClient::Options co;
    co.f = f;
    for (int i = 0; i < n_replicas; ++i) {
      QrReplica::Options ro;
      ro.colluding = i < n_colluders;
      replicas.push_back(std::make_unique<QrReplica>(ro));
      co.replicas.push_back(net.AddNode(replicas.back().get()));
      replicas.back()->SetContent(content);
    }
    client = std::make_unique<QrClient>(co);
    net.AddNode(client.get());
    net.StartAll();
  }

  Simulator sim;
  Network net;
  DocumentStore content;
  std::vector<std::unique_ptr<QrReplica>> replicas;
  std::unique_ptr<QrClient> client;
};

TEST(SmrQuorumTest, HonestQuorumAgrees) {
  QrHarness h(1, 5, /*f=*/1, /*colluders=*/0);
  bool done = false;
  h.client->IssueRead(Query::Get(ItemKey(2)),
                      [&](bool ok, const QueryResult& result) {
                        done = true;
                        EXPECT_TRUE(ok);
                        EXPECT_EQ(result.rows.size(), 1u);
                      });
  h.sim.RunUntil(2 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(h.client->reads_accepted(), 1u);
  // Exactly 2f+1 = 3 replicas executed the query.
  uint64_t executed = 0;
  for (const auto& rep : h.replicas) {
    executed += rep->reads_executed();
  }
  EXPECT_EQ(executed, 3u);
}

TEST(SmrQuorumTest, FColludersCannotPassWrongAnswer) {
  // Replicas 0..f-1 collude; quorum is 2f+1 with f+1 needed to accept, so
  // the honest majority always outvotes them.
  for (int f = 1; f <= 3; ++f) {
    QrHarness h(100 + f, 2 * f + 1, f, /*colluders=*/f);
    QueryExecutor truth;
    int wrong = 0;
    for (int i = 0; i < 20; ++i) {
      Query q = Query::Get(ItemKey(static_cast<size_t>(i)));
      auto expected = truth.Execute(h.content, q);
      ASSERT_TRUE(expected.ok());
      h.client->IssueRead(q, [&, exp = expected->result](
                                 bool ok, const QueryResult& result) {
        if (ok && !(result == exp)) {
          ++wrong;
        }
      });
    }
    h.sim.RunUntil(10 * kSecond);
    EXPECT_EQ(wrong, 0) << "f=" << f;
    EXPECT_EQ(h.client->reads_accepted(), 20u) << "f=" << f;
  }
}

TEST(SmrQuorumTest, MoreThanFColludersDefeatTheQuorum) {
  // f+1 colluders in a 2f+1 quorum CAN pass a wrong answer — the paper's
  // point that quorum systems buy safety with resources, not certainty.
  QrHarness h(7, 3, /*f=*/1, /*colluders=*/2);
  QueryExecutor truth;
  Query q = Query::Get(ItemKey(1));
  auto expected = truth.Execute(h.content, q);
  ASSERT_TRUE(expected.ok());
  int wrong = 0;
  for (int i = 0; i < 10; ++i) {
    h.client->IssueRead(q, [&, exp = expected->result](bool ok,
                                                       const QueryResult& r) {
      if (ok && !(r == exp)) {
        ++wrong;
      }
    });
  }
  h.sim.RunUntil(10 * kSecond);
  EXPECT_GT(wrong, 0);
}

TEST(SmrQuorumTest, LatencySetBySlowestQuorumMember) {
  // With one very slow replica inside the quorum, acceptance still needs
  // f+1 matching replies; make the fast path impossible by using f+1 = 3
  // of 3 replicas... (f=1, quorum=3, need 2 matches: the two fast ones
  // suffice). So instead compare latency with an added slow link.
  QrHarness fast(8, 3, 1, 0);
  QrHarness slow(8, 3, 1, 0);
  // Make replica 0 (always in the quorum) extremely slow in `slow`.
  slow.net.SetLinkSymmetric(slow.client->id(), slow.replicas[0]->id(),
                            LinkModel{500 * kMillisecond, 0, 0.0});
  // And replica 1 too — now only one fast member remains, so the quorum
  // must wait for a slow one.
  slow.net.SetLinkSymmetric(slow.client->id(), slow.replicas[1]->id(),
                            LinkModel{500 * kMillisecond, 0, 0.0});
  for (int i = 0; i < 10; ++i) {
    fast.client->IssueRead(Query::Get(ItemKey(0)));
    slow.client->IssueRead(Query::Get(ItemKey(0)));
  }
  fast.sim.RunUntil(20 * kSecond);
  slow.sim.RunUntil(20 * kSecond);
  ASSERT_EQ(fast.client->reads_accepted(), 10u);
  ASSERT_EQ(slow.client->reads_accepted(), 10u);
  EXPECT_GT(slow.client->latency_us().Median(),
            5 * fast.client->latency_us().Median());
}

}  // namespace
}  // namespace sdr
