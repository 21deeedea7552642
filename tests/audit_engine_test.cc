// Tests for the auditor's deduplicated, memoized, multi-worker
// re-execution engine:
//   - dedup collapses identical (version, query) pledges into one
//     execution but still compares every pledge's hash individually, so a
//     forged pledge hiding behind an honest twin is caught;
//   - the cross-version memo never produces a stale verdict: on an honest
//     cluster with a live write stream, memo hits across finalized
//     versions yield zero mismatches;
//   - every simulated output — trace bytes and auditor metrics — is
//     byte-identical at any --audit_jobs value, on calm and chaotic runs;
//   - forged pledges submitted straight to the auditor incriminate no one:
//     admission checks only the version token, and a slave signature is
//     checked before any accusation.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/chaos/runner.h"
#include "src/core/cluster.h"
#include "src/trace/export.h"

namespace sdr {
namespace {

// A small closed-loop cluster with enough query repetition for the dedup
// and memo paths to light up within a short run.
ClusterConfig EngineConfig(uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.num_masters = 1;
  config.slaves_per_master = 2;
  config.num_clients = 4;
  config.corpus.n_items = 50;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.double_check_probability = 0.05;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 5 * kMillisecond;
  config.client_write_fraction = 0.02;
  config.track_ground_truth = false;
  return config;
}

TEST(AuditEngineTest, ForgedPledgeBehindDedupedTwinIsCaught) {
  ClusterConfig config = EngineConfig(7);
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0) {
      b.lie_probability = 0.05;
    }
    return b;
  };
  Cluster cluster(config);
  cluster.RunFor(60 * kSecond);

  AuditorMetrics am = cluster.auditor().metrics();
  // The workload must actually exercise the dedup path...
  ASSERT_GT(am.pledges_deduped, 0u);
  // ...and the liar must not be able to hide behind it: dedup shares the
  // re-execution, never the per-pledge comparison.
  EXPECT_GT(am.mismatches_found, 0u);
  EXPECT_GT(am.accusations_sent, 0u);
}

TEST(AuditEngineTest, MemoHitsAcrossFinalizedVersionsStayCorrect) {
  // Honest cluster with a steady write stream: versions commit, finalize,
  // and prune while the memo reuses results across them. A memo entry
  // surviving a write that actually affected its query would re-execute to
  // a different hash than some pledge and show up as a false mismatch.
  Cluster cluster(EngineConfig(11));
  cluster.RunFor(60 * kSecond);

  AuditorMetrics am = cluster.auditor().metrics();
  ASSERT_GT(am.reexec_memo_hits, 0u);
  ASSERT_GT(am.versions_finalized, 1u);
  EXPECT_EQ(am.mismatches_found, 0u);
  EXPECT_EQ(am.accusations_sent, 0u);
  EXPECT_EQ(am.bad_read_notices_sent, 0u);
}

// Every scalar the auditor reports, as one comparable tuple.
std::vector<uint64_t> MetricTuple(const AuditorMetrics& am) {
  return {am.pledges_received,      am.pledges_audited,
          am.pledges_skipped_sampling, am.pledges_version_pruned,
          am.pledges_exec_failed,   am.pledges_bad_signature,
          am.mismatches_found,      am.accusations_sent,
          am.bad_read_notices_sent, am.cache_hits,
          am.versions_finalized,    am.work_units_executed,
          am.pledges_deduped,       am.reexec_memo_hits,
          am.reexec_memo_misses,    am.audit_workers_busy,
          am.verify_batches,        am.sigs_batch_verified,
          am.sig_cache_hits,        am.sig_cache_misses,
          am.sig_cache_evictions};
}

struct RunOutput {
  Bytes trace;
  std::vector<uint64_t> auditor;
};

RunOutput RunWithJobs(int audit_jobs, bool chaotic) {
  ClusterConfig config = EngineConfig(13);
  config.audit_jobs = audit_jobs;
  config.trace.enabled = true;
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 1) {
      b.lie_probability = 0.02;
    }
    return b;
  };
  Cluster cluster(config);

  std::unique_ptr<ChaosController> controller;
  if (chaotic) {
    auto scenario = ParseScenario(
        "at 5s set_behavior slave:0 lie_probability=0.2; "
        "at 20s partition slave:0 master:*; at 30s heal all");
    EXPECT_TRUE(scenario.ok());
    controller = std::make_unique<ChaosController>(
        &cluster, std::move(scenario).value(),
        std::vector<std::unique_ptr<InvariantChecker>>{});
    controller->Install();
  }
  cluster.RunFor(45 * kSecond);
  if (controller) {
    controller->Finish();
  }

  RunOutput out;
  out.trace = EncodeTrace(*cluster.trace());
  out.auditor = MetricTuple(cluster.auditor().metrics());
  return out;
}

TEST(AuditEngineTest, OutputsByteIdenticalAcrossWorkerCounts) {
  for (bool chaotic : {false, true}) {
    RunOutput base = RunWithJobs(1, chaotic);
    for (int jobs : {2, 8}) {
      RunOutput other = RunWithJobs(jobs, chaotic);
      EXPECT_EQ(base.trace, other.trace)
          << "trace diverged at audit_jobs=" << jobs
          << (chaotic ? " (chaos)" : " (plain)");
      EXPECT_EQ(base.auditor, other.auditor)
          << "auditor metrics diverged at audit_jobs=" << jobs
          << (chaotic ? " (chaos)" : " (plain)");
    }
  }
}

// A malicious client submitting pledges straight to the auditor. It holds
// one genuine pledge (captured from an accepted read) and tampers with it.
class ForgedSubmitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config = EngineConfig(17);
    config.num_clients = 1;
    config.client_mode = Client::LoadMode::kManual;
    config.params.double_check_probability = 0.0;
    config.trace.enabled = true;
    cluster_ = std::make_unique<Cluster>(config);
    cluster_->RunFor(2 * kSecond);  // setup

    Client& client = cluster_->client(0);
    auto inner = client.on_accept;
    client.on_accept = [this, inner](const Query& q, const Pledge& p,
                                     const QueryResult& r) {
      accepted_ = p;
      if (inner) {
        inner(q, p, r);
      }
    };
    client.on_bad_read = [this](const Query&, uint64_t) { ++bad_reads_; };
    client.IssueRead(Query::Get("item/00001"));
    cluster_->RunFor(1 * kSecond);
    ASSERT_TRUE(accepted_.has_value());
    genuine_ = *accepted_;
  }

  // Submits `pledge` as the client would, then lets the audit run.
  AuditorMetrics Submit(const Pledge& pledge, uint64_t trace_id) {
    AuditSubmit msg;
    msg.trace_id = trace_id;
    msg.pledge = pledge;
    cluster_->net().Send(cluster_->client(0).id(), cluster_->auditor().id(),
                         WithType(MsgType::kAuditSubmit, msg.Encode()));
    cluster_->RunFor(1 * kSecond);
    return cluster_->auditor().metrics();
  }

  // How many `name` trace instants the auditor emitted for trace_id.
  int Instants(const std::string& name, uint64_t trace_id) {
    int count = 0;
    TraceSink* sink = cluster_->trace();
    for (const TraceEvent& e : sink->Events()) {
      if (e.trace_id == trace_id && sink->name(e.name) == name) {
        ++count;
      }
    }
    return count;
  }

  std::unique_ptr<Cluster> cluster_;
  std::optional<Pledge> accepted_;
  Pledge genuine_;
  int bad_reads_ = 0;
};

TEST_F(ForgedSubmitTest, BadSlaveSignatureWithCorrectHashAccusesNoOne) {
  AuditorMetrics before = cluster_->auditor().metrics();
  Pledge forged = genuine_;
  forged.signature[0] ^= 1;
  AuditorMetrics after = Submit(forged, 0xF001);
  // Audited like any other pledge, and it matched: nothing to prove.
  EXPECT_EQ(after.pledges_audited, before.pledges_audited + 1);
  EXPECT_EQ(after.pledges_bad_signature, before.pledges_bad_signature);
  EXPECT_EQ(after.mismatches_found, before.mismatches_found);
  EXPECT_EQ(after.accusations_sent, before.accusations_sent);
}

TEST_F(ForgedSubmitTest, BadSlaveSignatureWithWrongHashIsCaughtBeforeAccusing) {
  AuditorMetrics before = cluster_->auditor().metrics();
  Pledge forged = genuine_;
  forged.result_sha1[0] ^= 1;  // the slave's signature no longer covers it
  AuditorMetrics after = Submit(forged, 0xF002);
  EXPECT_EQ(after.pledges_audited, before.pledges_audited + 1);
  EXPECT_EQ(after.pledges_bad_signature, before.pledges_bad_signature + 1);
  EXPECT_EQ(after.mismatches_found, before.mismatches_found);
  EXPECT_EQ(after.accusations_sent, before.accusations_sent);
  EXPECT_EQ(after.bad_read_notices_sent, before.bad_read_notices_sent);
  EXPECT_EQ(bad_reads_, 0);
  EXPECT_EQ(Instants("audit.bad_sig", 0xF002), 1);
  EXPECT_EQ(Instants("accuse", 0xF002), 0);
}

TEST_F(ForgedSubmitTest, ForgedTokenIsDroppedAtAdmissionAndItsVersionFinalizes) {
  AuditorMetrics before = cluster_->auditor().metrics();
  Pledge forged = genuine_;
  forged.token.signature[0] ^= 1;
  AuditorMetrics after = Submit(forged, 0xF003);
  EXPECT_EQ(after.pledges_bad_signature, before.pledges_bad_signature + 1);
  EXPECT_EQ(after.pledges_audited, before.pledges_audited);
  EXPECT_EQ(Instants("audit.bad_sig", 0xF003), 1);

  // The dropped pledge must not hold its version open: once a write
  // commits the next version and the audit window passes, it finalizes.
  const uint64_t version = forged.token.content_version;
  bool committed = false;
  cluster_->client(0).IssueWrite({WriteOp::Put("item/00002", "v2")},
                                 [&](bool ok, uint64_t) { committed = ok; });
  cluster_->RunFor(10 * kSecond);
  ASSERT_TRUE(committed);
  EXPECT_GT(cluster_->auditor().audited_version(), version);
}

TEST_F(ForgedSubmitTest, RealLieIsStillAccused) {
  Slave::Behavior lying;
  lying.lie_probability = 1.0;
  for (int s = 0; s < cluster_->num_slaves(); ++s) {
    cluster_->slave(s).SetBehavior(lying);
  }
  AuditorMetrics before = cluster_->auditor().metrics();
  cluster_->client(0).IssueRead(Query::Get("item/00003"));
  cluster_->RunFor(2 * kSecond);
  AuditorMetrics after = cluster_->auditor().metrics();
  EXPECT_EQ(after.mismatches_found, before.mismatches_found + 1);
  EXPECT_EQ(after.accusations_sent, before.accusations_sent + 1);
  EXPECT_EQ(after.bad_read_notices_sent, before.bad_read_notices_sent + 1);
  EXPECT_EQ(after.pledges_bad_signature, before.pledges_bad_signature);
  EXPECT_EQ(bad_reads_, 1);
}

}  // namespace
}  // namespace sdr
