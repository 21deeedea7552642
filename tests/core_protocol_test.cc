// End-to-end protocol tests on full simulated clusters: the read/write
// protocols, freshness, probabilistic checking, auditing, corrective
// action, greedy-client policing, non-frameability, and master crash
// recovery.
#include <gtest/gtest.h>

#include <optional>

#include "src/core/cluster.h"

namespace sdr {
namespace {

ClusterConfig SmallConfig(uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.num_masters = 2;
  config.slaves_per_master = 2;
  config.num_clients = 4;
  config.corpus.n_items = 50;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 200 * kMillisecond;
  return config;
}

TEST(ClusterTest, HonestClusterServesReadsCorrectly) {
  Cluster cluster(SmallConfig(1));
  cluster.RunFor(30 * kSecond);

  auto totals = cluster.ComputeTotals();
  EXPECT_GT(totals.clients.reads_accepted, 100u);
  EXPECT_EQ(cluster.accepted_wrong(), 0u);
  EXPECT_GT(cluster.accepted_checked(), 0u);
  EXPECT_EQ(totals.masters.slaves_excluded, 0u);
  EXPECT_EQ(totals.clients.double_check_mismatches, 0u);
  // Pledges flow to the auditor and audits find nothing.
  EXPECT_GT(cluster.auditor().metrics().pledges_received, 0u);
  EXPECT_EQ(cluster.auditor().metrics().mismatches_found, 0u);
}

TEST(ClusterTest, AllClientsCompleteSetupAndGetDistinctSlaves) {
  ClusterConfig config = SmallConfig(2);
  config.client_mode = Client::LoadMode::kManual;
  Cluster cluster(config);
  cluster.RunFor(5 * kSecond);
  for (int c = 0; c < cluster.num_clients(); ++c) {
    EXPECT_TRUE(cluster.client(c).ready()) << c;
    EXPECT_EQ(cluster.client(c).read_set().size(), 1u);
  }
}

TEST(ClusterTest, WriteCommitsAndPropagatesWithinMaxLatency) {
  ClusterConfig config = SmallConfig(3);
  config.client_mode = Client::LoadMode::kManual;
  Cluster cluster(config);
  cluster.RunFor(2 * kSecond);  // setup + first keep-alives

  bool committed = false;
  uint64_t committed_version = 0;
  cluster.client(0).IssueWrite(
      {WriteOp::Put("price/00001", "4242")},
      [&](bool ok, uint64_t version) {
        committed = ok;
        committed_version = version;
      });
  cluster.RunFor(2 * kSecond);
  ASSERT_TRUE(committed);
  EXPECT_EQ(committed_version, 1u);
  EXPECT_EQ(cluster.master(0).version(), 1u);
  EXPECT_EQ(cluster.master(1).version(), 1u);

  // After max_latency, every slave must have applied the write (honest,
  // well-connected slaves) and fresh reads must observe it.
  cluster.RunFor(cluster.config().params.max_latency);
  for (int s = 0; s < cluster.num_slaves(); ++s) {
    EXPECT_EQ(cluster.slave(s).applied_version(), 1u) << s;
  }

  bool read_done = false;
  cluster.client(1).IssueRead(Query::Get("price/00001"),
                              [&](bool accepted, const QueryResult& result) {
                                read_done = true;
                                ASSERT_TRUE(accepted);
                                ASSERT_EQ(result.rows.size(), 1u);
                                EXPECT_EQ(result.rows[0].second, "4242");
                              });
  cluster.RunFor(5 * kSecond);
  EXPECT_TRUE(read_done);
}

TEST(ClusterTest, WritesAreSpacedAtLeastMaxLatencyApart) {
  ClusterConfig config = SmallConfig(4);
  config.client_mode = Client::LoadMode::kManual;
  config.params.max_latency = 1 * kSecond;
  Cluster cluster(config);
  cluster.RunFor(2 * kSecond);

  std::vector<SimTime> commit_times;
  for (int i = 0; i < 4; ++i) {
    cluster.client(0).IssueWrite(
        {WriteOp::Put(std::string("k").append(std::to_string(i)), "v")},
        [&, i](bool ok, uint64_t) {
          ASSERT_TRUE(ok) << i;
          commit_times.push_back(cluster.sim().Now());
        });
  }
  cluster.RunFor(20 * kSecond);
  ASSERT_EQ(commit_times.size(), 4u);
  // Reply times are commit + one network hop; spacing must still be at
  // least max_latency minus jitter on the reply path.
  for (size_t i = 1; i < commit_times.size(); ++i) {
    EXPECT_GE(commit_times[i] - commit_times[i - 1],
              config.params.max_latency - 20 * kMillisecond)
        << i;
  }
}

TEST(ClusterTest, LyingSlaveCaughtRedHandedByDoubleCheck) {
  ClusterConfig config = SmallConfig(5);
  config.num_clients = 2;
  config.params.double_check_probability = 1.0;  // always check
  // One lying slave per master (indices 0..1 belong to master 0, 2..3 to
  // master 1); the least-loaded assignment hands the liar out first.
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0 || index == 2) {
      b.lie_probability = 1.0;
    }
    return b;
  };
  Cluster cluster(config);
  cluster.RunFor(30 * kSecond);

  auto totals = cluster.ComputeTotals();
  EXPECT_GT(totals.slaves.lies_told, 0u);
  EXPECT_GT(totals.clients.double_check_mismatches, 0u);
  EXPECT_GE(totals.masters.slaves_excluded, 1u);
  // The pledge is irrefutable: with p=1 nothing wrong is ever accepted.
  EXPECT_EQ(cluster.accepted_wrong(), 0u);
  // Clients of the excluded slave were moved to a new slave.
  uint64_t reassigned = 0;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    reassigned += cluster.client(c).metrics().reassignments;
  }
  EXPECT_GT(reassigned, 0u);
  // Service recovered after exclusion.
  EXPECT_GT(totals.clients.reads_accepted, 50u);
}

TEST(ClusterTest, LyingSlaveEventuallyCaughtByAuditor) {
  ClusterConfig config = SmallConfig(6);
  config.num_clients = 2;
  config.params.double_check_probability = 0.0;  // audit is the only net
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0) {
      b.lie_probability = 0.3;
    }
    return b;
  };
  Cluster cluster(config);
  cluster.RunFor(60 * kSecond);

  auto totals = cluster.ComputeTotals();
  EXPECT_GT(totals.slaves.lies_told, 0u);
  // Without double-checking, some wrong answers were accepted (the paper's
  // optimistic trade-off)...
  EXPECT_GT(cluster.accepted_wrong(), 0u);
  // ...but the background audit caught the slave and had it excluded.
  EXPECT_GT(cluster.auditor().metrics().mismatches_found, 0u);
  EXPECT_GT(cluster.auditor().metrics().accusations_sent, 0u);
  EXPECT_GE(totals.masters.slaves_excluded, 1u);
  // After exclusion, no further lies are accepted; wrong accepts stop
  // growing. (Run longer and compare.)
  uint64_t wrong_at_exclusion = cluster.accepted_wrong();
  cluster.RunFor(30 * kSecond);
  EXPECT_EQ(cluster.accepted_wrong(), wrong_at_exclusion);
}

// The ground-truth check against a MaterializeAt oracle: with writes
// flowing and a liar that is never caught, every accepted read's verdict
// (checked, wrong) is what executing its query against a materialized copy
// of the pledged version gives. Reads pledged at the master's head are
// re-executed in place, older ones against a materialized version; slow
// state propagation makes both common.
TEST(ClusterTest, GroundTruthMatchesAMaterializedCopy) {
  ClusterConfig config = SmallConfig(8);
  config.corpus.n_items = 10;
  config.client_write_fraction = 0.2;
  config.params.double_check_probability = 0.0;
  config.params.exclusion_enabled = false;
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0) {
      b.lie_probability = 0.3;
    }
    return b;
  };
  Cluster cluster(config);
  for (int m = 0; m < cluster.num_masters(); ++m) {
    for (int s = 0; s < cluster.num_slaves(); ++s) {
      cluster.net().SetLink(cluster.master(m).id(), cluster.slave(s).id(),
                            LinkModel{300 * kMillisecond, 0, 0.0});
    }
  }
  std::optional<bool> expect_wrong;  // nullopt: no log holds the version
  uint64_t at_head = 0, older = 0, wrong = 0;
  QueryExecutor oracle;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    Client& client = cluster.client(c);
    client.on_accept = [&, inner = std::move(client.on_accept)](
                           const Query& q, const Pledge& pledge,
                           const QueryResult& result) {
      const uint64_t version = pledge.token.content_version;
      expect_wrong.reset();
      for (int m = 0; m < config.num_masters; ++m) {
        const OpLog& log = cluster.master(m).oplog();
        if (!cluster.master(m).up() || log.head_version() < version) {
          continue;
        }
        ++(version == log.head_version() ? at_head : older);
        auto copy = log.MaterializeAt(version);
        ASSERT_TRUE(copy.ok());
        auto outcome = oracle.Execute(*copy, q);
        ASSERT_TRUE(outcome.ok());
        expect_wrong = !(outcome->result == result);
        break;
      }
      inner(q, pledge, result);
    };
  }
  cluster.on_accepted_read = [&](const Cluster::AcceptedRead& record) {
    EXPECT_EQ(record.checked, expect_wrong.has_value());
    EXPECT_EQ(record.wrong, expect_wrong.value_or(false));
    wrong += record.wrong ? 1 : 0;
  };
  cluster.RunFor(120 * kSecond);

  EXPECT_GT(at_head, 0u);
  EXPECT_GT(older, 0u);
  EXPECT_GT(wrong, 0u);
  EXPECT_EQ(cluster.accepted_wrong(), wrong);
  EXPECT_EQ(cluster.accepted_checked(), at_head + older);
}

TEST(ClusterTest, InconsistentLieRejectedAtClientHashCheck) {
  ClusterConfig config = SmallConfig(7);
  config.num_clients = 1;
  config.params.double_check_probability = 0.0;
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0) {
      b.inconsistent_lie_probability = 1.0;
    }
    return b;
  };
  Cluster cluster(config);
  cluster.RunFor(20 * kSecond);
  const ClientMetrics& m = cluster.client(0).metrics();
  EXPECT_GT(m.reads_rejected_hash, 0u);
  // Clumsy lies never make it through.
  EXPECT_EQ(cluster.accepted_wrong(), 0u);
}

TEST(ClusterTest, StaleSlaveDeclinesAndStaleTokenRejected) {
  ClusterConfig config = SmallConfig(8);
  config.num_clients = 2;
  config.client_write_fraction = 0.0;
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0) {
      b.ignore_updates = true;  // honest-but-stuck replica
      b.serve_despite_stale = false;
    }
    if (index == 1) {
      b.ignore_updates = true;
      b.serve_despite_stale = true;  // malicious: serves with stale token
    }
    return b;
  };
  // Drive writes from one client so versions move past the stuck slaves.
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.tweak_client = [](int index, Client::Options& opts) {
    if (index == 0) {
      opts.write_fraction = 0.5;
    }
  };
  Cluster cluster(config);
  cluster.RunFor(60 * kSecond);

  uint64_t declined = 0, stale_rejected = 0;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    declined += cluster.client(c).metrics().reads_failed_declined;
    stale_rejected += cluster.client(c).metrics().reads_rejected_stale;
  }
  EXPECT_GT(declined + stale_rejected, 0u);
  // Stale content was never accepted as fresh.
  EXPECT_EQ(cluster.accepted_wrong(), 0u);
}

TEST(ClusterTest, GreedyClientGetsThrottledHonestClientsUnaffected) {
  ClusterConfig config = SmallConfig(9);
  config.num_clients = 3;
  config.params.double_check_probability = 0.02;
  config.params.greedy_policing_enabled = true;
  config.params.greedy_refill_per_second = 0.5;
  config.params.greedy_burst = 5.0;
  config.client_think_time = 50 * kMillisecond;
  config.tweak_client = [](int index, Client::Options& opts) {
    if (index == 0) {
      opts.greedy = true;  // double-checks every single read
    }
  };
  Cluster cluster(config);
  cluster.RunFor(60 * kSecond);

  const ClientMetrics& greedy = cluster.client(0).metrics();
  EXPECT_GT(greedy.double_checks_unserved, 0u);
  // Honest clients' rare double-checks almost always get served.
  for (int c = 1; c < 3; ++c) {
    const ClientMetrics& honest = cluster.client(c).metrics();
    EXPECT_LE(honest.double_checks_unserved, honest.double_checks_sent / 2)
        << c;
  }
  uint64_t throttled = 0;
  for (int m = 0; m < cluster.num_masters(); ++m) {
    throttled += cluster.master(m).metrics().double_checks_throttled;
  }
  EXPECT_GT(throttled, 0u);
}

TEST(ClusterTest, ForgedAccusationCannotFrameInnocentSlave) {
  ClusterConfig config = SmallConfig(10);
  config.client_mode = Client::LoadMode::kManual;
  Cluster cluster(config);
  cluster.RunFor(2 * kSecond);

  // A malicious client fabricates an "incriminating" pledge with a wrong
  // hash but cannot produce the slave's signature.
  NodeId victim = cluster.client(0).read_set().front().cert.subject;
  Pledge forged;
  forged.query = Query::Get("item/00001");
  forged.result_sha1 = Bytes(20, 0xee);
  forged.token.content_version = 0;
  forged.token.master = cluster.client(0).master();
  forged.slave = victim;
  forged.signature = Bytes(64, 0xab);
  Accusation accusation;
  accusation.pledge = forged;
  cluster.net().Send(cluster.client(0).id(), cluster.client(0).master(),
                     EncodeTyped(MsgType::kAccusation, accusation));
  cluster.RunFor(5 * kSecond);

  uint64_t unfounded = 0, excluded = 0;
  for (int m = 0; m < cluster.num_masters(); ++m) {
    unfounded += cluster.master(m).metrics().accusations_unfounded;
    excluded += cluster.master(m).metrics().slaves_excluded;
  }
  EXPECT_EQ(unfounded, 1u);
  EXPECT_EQ(excluded, 0u);
}

TEST(ClusterTest, NonSequencerMasterCrashClientsReSetup) {
  ClusterConfig config = SmallConfig(11);
  config.num_clients = 4;
  Cluster cluster(config);
  cluster.RunFor(10 * kSecond);

  // Crash the second master (not the broadcast sequencer).
  NodeId dead = cluster.master(1).id();
  cluster.net().SetNodeUp(dead, false);
  cluster.RunFor(30 * kSecond);

  // The surviving master adopted the dead master's slaves.
  EXPECT_GT(cluster.master(0).metrics().slave_sets_adopted, 0u);
  EXPECT_TRUE(cluster.master(0).dead_masters().count(dead) > 0);

  // Clients that had the dead master completed a fresh setup and resumed.
  auto totals_before = cluster.ComputeTotals();
  cluster.RunFor(20 * kSecond);
  auto totals_after = cluster.ComputeTotals();
  EXPECT_GT(totals_after.clients.reads_accepted,
            totals_before.clients.reads_accepted);
  EXPECT_EQ(cluster.accepted_wrong(), 0u);
  for (int c = 0; c < cluster.num_clients(); ++c) {
    EXPECT_NE(cluster.client(c).master(), dead) << c;
  }
}

TEST(ClusterTest, SequencerMasterCrashWritesStillCommit) {
  ClusterConfig config = SmallConfig(12);
  config.num_masters = 3;
  config.client_mode = Client::LoadMode::kManual;
  Cluster cluster(config);
  cluster.RunFor(5 * kSecond);

  // Group order is master0, master1, master2, auditor; epoch 0 sequencer is
  // master0. Crash it.
  cluster.net().SetNodeUp(cluster.master(0).id(), false);
  cluster.RunFor(10 * kSecond);  // takeover window

  // A client attached to a surviving master can still write.
  int writer = -1;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    if (cluster.client(c).master() != cluster.master(0).id()) {
      writer = c;
      break;
    }
  }
  ASSERT_GE(writer, 0);
  bool committed = false;
  cluster.client(writer).IssueWrite({WriteOp::Put("post-crash", "1")},
                                    [&](bool ok, uint64_t) { committed = ok; });
  cluster.RunFor(20 * kSecond);
  EXPECT_TRUE(committed);
  EXPECT_GE(cluster.master(1).version(), 1u);
  EXPECT_GE(cluster.master(2).version(), 1u);
}

TEST(ClusterTest, AuditorFinalizesVersionsAndPrunes) {
  ClusterConfig config = SmallConfig(13);
  config.client_write_fraction = 0.2;
  config.params.max_latency = 500 * kMillisecond;
  Cluster cluster(config);
  cluster.RunFor(60 * kSecond);

  const AuditorMetrics& am = cluster.auditor().metrics();
  EXPECT_GT(am.pledges_received, 0u);
  EXPECT_GT(am.pledges_audited, 0u);
  EXPECT_GT(am.versions_finalized, 0u);
  EXPECT_GT(cluster.auditor().audited_version(), 0u);
  // The auditor keeps up with this light load: small lag at the end.
  EXPECT_LE(cluster.auditor().version_lag(), 3u);
  EXPECT_EQ(am.mismatches_found, 0u);
}

TEST(ClusterTest, AuditSamplingAuditsOnlyAFraction) {
  ClusterConfig config = SmallConfig(14);
  config.params.audit_sample_fraction = 0.25;
  Cluster cluster(config);
  cluster.RunFor(30 * kSecond);
  const AuditorMetrics& am = cluster.auditor().metrics();
  ASSERT_GT(am.pledges_received, 100u);
  EXPECT_GT(am.pledges_skipped_sampling, 0u);
  double audited_fraction =
      static_cast<double>(am.pledges_received - am.pledges_skipped_sampling) /
      static_cast<double>(am.pledges_received);
  EXPECT_NEAR(audited_fraction, 0.25, 0.1);
}

TEST(ClusterTest, DelayedDiscoveryNotifiesVictimForRollback) {
  ClusterConfig config = SmallConfig(21);
  config.num_clients = 2;
  config.params.double_check_probability = 0.0;
  // One liar per master so whichever master the clients pick, their first
  // assigned slave lies.
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0 || index == 2) {
      b.lie_probability = 0.5;
    }
    return b;
  };
  Cluster cluster(config);
  uint64_t rollbacks = 0;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    cluster.client(c).on_bad_read = [&](const Query&, uint64_t) {
      ++rollbacks;
    };
  }
  cluster.RunFor(60 * kSecond);

  // At least one wrong answer was accepted and the auditor reported each
  // back to the victim client for rollback.
  ASSERT_GT(cluster.accepted_wrong(), 0u);
  uint64_t notices = 0;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    notices += cluster.client(c).metrics().bad_read_notices;
  }
  EXPECT_EQ(notices, cluster.auditor().metrics().bad_read_notices_sent);
  EXPECT_GT(notices, 0u);
  EXPECT_EQ(rollbacks, notices);
  // Every accepted-wrong read has a matching notice (the audit covers all
  // forwarded pledges).
  EXPECT_GE(notices, cluster.accepted_wrong());
}

TEST(ClusterTest, MultipleAuditorsSplitThePledgeStream) {
  ClusterConfig config = SmallConfig(22);
  config.num_auditors = 2;
  config.slaves_per_master = 2;  // 4 slaves -> both auditors get traffic
  config.num_clients = 4;
  Cluster cluster(config);
  cluster.RunFor(30 * kSecond);

  ASSERT_EQ(cluster.num_auditors(), 2);
  uint64_t a0 = cluster.auditor(0).metrics().pledges_received;
  uint64_t a1 = cluster.auditor(1).metrics().pledges_received;
  EXPECT_GT(a0, 0u);
  EXPECT_GT(a1, 0u);
  auto totals = cluster.ComputeTotals();
  EXPECT_EQ(a0 + a1, totals.clients.pledges_forwarded);
  EXPECT_EQ(cluster.accepted_wrong(), 0u);
}

TEST(ClusterTest, MultipleAuditorsStillCatchLiars) {
  ClusterConfig config = SmallConfig(23);
  config.num_auditors = 2;
  config.num_clients = 4;
  config.params.double_check_probability = 0.0;
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0 || index == 3) {
      b.lie_probability = 0.5;
    }
    return b;
  };
  Cluster cluster(config);
  cluster.RunFor(60 * kSecond);
  auto totals = cluster.ComputeTotals();
  EXPECT_GT(totals.slaves.lies_told, 0u);
  EXPECT_GE(totals.masters.slaves_excluded, 1u);
  EXPECT_GT(totals.auditors.mismatches_found, 0u);
}

TEST(ClusterTest, DeterministicAcrossIdenticalRuns) {
  auto run = [](uint64_t seed) {
    ClusterConfig config = SmallConfig(seed);
    Cluster cluster(config);
    cluster.RunFor(20 * kSecond);
    auto t = cluster.ComputeTotals();
    return std::tuple(t.clients.reads_issued, t.clients.reads_accepted,
                      t.clients.double_checks_sent,
                      t.clients.pledges_forwarded);
  };
  EXPECT_EQ(run(99), run(99));
}

TEST(ClusterTest, ReadsParkedAfterTheLastExclusionFail) {
  // One master whose every slave lies: the auditor convicts both, the last
  // exclusion empties the client's read set, and no master has a slave
  // left to assign. The read in flight then is parked, and so is every
  // read issued later; each must fail once setup has timed out for its
  // retry budget, so the closed loop goes on instead of waiting for ever.
  ClusterConfig config = SmallConfig(21);
  config.num_masters = 1;
  config.num_clients = 1;
  config.client_think_time = 1 * kMillisecond;
  config.slave_behavior = [](int) {
    Slave::Behavior b;
    b.lie_probability = 1.0;
    return b;
  };
  Cluster cluster(config);
  cluster.RunFor(20 * kSecond);
  ASSERT_EQ(cluster.ComputeTotals().masters.slaves_excluded, 2u);
  Client& client = cluster.client(0);
  ASSERT_TRUE(client.read_set().empty());
  ASSERT_FALSE(client.ready());
  const uint64_t timed_out = client.metrics().reads_timed_out;
  cluster.RunFor(40 * kSecond);
  EXPECT_EQ(client.metrics().reads_timed_out, timed_out + 1);
  // A read issued now parks too, and fails the same way.
  bool settled = false;
  client.IssueRead(Query::Get("missing"),
                   [&settled](bool accepted, const QueryResult&) {
                     EXPECT_FALSE(accepted);
                     settled = true;
                   });
  cluster.RunFor(40 * kSecond);
  EXPECT_TRUE(settled);
  EXPECT_EQ(client.metrics().reads_timed_out, timed_out + 2);
}

TEST(ClusterTest, ClientChosenFreshnessRelaxation) {
  // A client with a relaxed freshness bound tolerates results an aggressive
  // client rejects (Section 3.2 variant).
  ClusterConfig config = SmallConfig(15);
  config.num_clients = 2;
  config.params.keepalive_period = 900 * kMillisecond;
  config.params.max_latency = 1 * kSecond;
  config.default_link = LinkModel{300 * kMillisecond, 150 * kMillisecond, 0.0};
  config.tweak_client = [](int index, Client::Options& opts) {
    if (index == 0) {
      opts.max_latency_override = 400 * kMillisecond;  // stricter than ML
    } else {
      opts.max_latency_override = 10 * kSecond;  // very relaxed
    }
  };
  Cluster cluster(config);
  cluster.RunFor(60 * kSecond);

  const ClientMetrics& strict = cluster.client(0).metrics();
  const ClientMetrics& relaxed = cluster.client(1).metrics();
  // On a slow link with sparse keep-alives, the strict client rejects some
  // (or even all) answers as stale; the relaxed client accepts smoothly.
  EXPECT_GT(strict.reads_rejected_stale, 0u);
  EXPECT_EQ(relaxed.reads_rejected_stale, 0u);
  EXPECT_GT(relaxed.reads_accepted, strict.reads_accepted);
}

}  // namespace
}  // namespace sdr
