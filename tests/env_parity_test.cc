// Env parity suite: the same protocol workload — closed-loop reads and
// writes against a cluster with one always-lying slave — runs once on the
// deterministic SimEnv substrate (via Cluster) and once on RealEnv over
// loopback TCP (one env + thread per node, exactly how sdrnode deploys),
// and must reach the same protocol outcomes on both:
//
//   - clients complete setup and accept pledge-verified reads,
//   - the lying slave is detected (audit or double-check mismatch),
//   - the SAME slave node id ends up excluded, and stays excluded.
//
// Counters differ (wall time is not sim time); outcomes may not.
#include <gtest/gtest.h>

#include <ctime>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/cluster.h"
#include "src/runtime/deployment.h"
#include "src/runtime/real_env.h"

namespace sdr {
namespace {

// One shared shape for both substrates: 1 master, 1 auditor, 3 slaves,
// 2 clients, slave 0 lies on every read.
constexpr int kLiarIndex = 0;

DeploymentConfig ParityConfig(uint64_t seed, bool with_liar) {
  DeploymentConfig dc;
  dc.seed = seed;
  dc.num_masters = 1;
  dc.num_auditors = 1;
  dc.slaves_per_master = 3;
  dc.num_clients = 2;
  dc.corpus.n_items = 30;
  dc.client_think_time = 25 * kMillisecond;
  dc.client_write_fraction = 0.05;
  dc.params.double_check_probability = 0.1;
  if (with_liar) {
    dc.slave_behavior = [](int index) {
      Slave::Behavior b;
      if (index == kLiarIndex) {
        b.lie_probability = 1.0;
      }
      return b;
    };
  }
  return dc;
}

struct Outcome {
  uint64_t reads_accepted = 0;
  uint64_t lies_told = 0;
  uint64_t detections = 0;  // audit mismatches + double-check catches
  bool liar_excluded = false;
  NodeId liar_node = kInvalidNode;
};

Outcome RunOnSimEnv(const DeploymentConfig& dc) {
  ClusterConfig config;
  static_cast<DeploymentConfig&>(config) = dc;
  config.client_mode = Client::LoadMode::kClosedLoop;

  Cluster cluster(config);
  cluster.RunFor(30 * kSecond);

  Outcome out;
  out.liar_node = cluster.slave(kLiarIndex).id();
  auto totals = cluster.ComputeTotals();
  out.reads_accepted = totals.clients.reads_accepted;
  out.lies_told = totals.slaves.lies_told;
  out.detections =
      totals.auditors.mismatches_found + totals.clients.double_check_mismatches;
  out.liar_excluded = cluster.master(0).IsExcluded(out.liar_node);
  // Permanence: exclusion survives further protocol time.
  cluster.RunFor(10 * kSecond);
  out.liar_excluded =
      out.liar_excluded && cluster.master(0).IsExcluded(out.liar_node);
  return out;
}

// A full in-process deployment on RealEnv: every roster node gets its own
// env (own port, own thread), wired full-mesh over 127.0.0.1 — the same
// topology sdrcluster launches as separate processes, shrunk into one test
// binary so role objects stay inspectable after the run.
Outcome RunOnRealEnv(const DeploymentConfig& dc, int run_seconds) {
  DeploymentPlan plan = BuildDeployment(dc);
  const NodeId liar_node = plan.slave_ids[kLiarIndex];

  struct RealNode {
    std::unique_ptr<RealEnv> env;
    PlanNode role;
  };

  std::vector<NodeId> roster;
  for (int id = 1; id <= plan.num_nodes(); ++id) {
    roster.push_back(static_cast<NodeId>(id));
  }

  timespec epoch_ts;
  clock_gettime(CLOCK_REALTIME, &epoch_ts);
  const int64_t epoch_us =
      static_cast<int64_t>(epoch_ts.tv_sec) * 1000000 +
      epoch_ts.tv_nsec / 1000;

  std::vector<RealNode> nodes(roster.size());
  for (size_t i = 0; i < roster.size(); ++i) {
    NodeId id = roster[i];
    RealNode& rn = nodes[i];
    RealEnv::Options eopts;
    eopts.rng_seed = dc.seed * 1000003 + id;
    eopts.epoch_realtime_us = epoch_us;
    // Clients wait for the serving fleet's sockets to come up, mirroring
    // sdrcluster's launch staggering.
    if (plan.KindOf(id) == NodeKind::kClient) {
      eopts.start_delay = 300 * kMillisecond;
    }
    rn.env = std::make_unique<RealEnv>(eopts);
    rn.role = BuildPlanNode(plan, id,
                            [&rn, id](Node* node) { rn.env->Attach(node, id); });
  }

  // Full mesh over loopback: ports are known post-construction.
  for (size_t i = 0; i < roster.size(); ++i) {
    for (size_t j = 0; j < roster.size(); ++j) {
      if (i != j) {
        nodes[i].env->AddPeer(roster[j], "127.0.0.1",
                              nodes[j].env->listen_port());
      }
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(nodes.size());
  for (RealNode& rn : nodes) {
    threads.emplace_back([&rn] { rn.env->Run(); });
  }

  // With every read a lie, detection needs one audited pledge; give the
  // cluster a generous wall budget, then stop everything and inspect.
  timespec run_ts{run_seconds, 0};
  nanosleep(&run_ts, nullptr);
  for (RealNode& rn : nodes) {
    rn.env->RequestStop();  // cross-thread safe by contract
  }
  for (std::thread& t : threads) {
    t.join();
  }

  Outcome out;
  out.liar_node = liar_node;
  for (RealNode& rn : nodes) {
    if (rn.role.client != nullptr) {
      const ClientMetrics& cm = rn.role.client->metrics();
      out.reads_accepted += cm.reads_accepted;
      out.detections += cm.double_check_mismatches;
    }
    if (rn.role.slave != nullptr) {
      out.lies_told += rn.role.slave->metrics().lies_told;
    }
    if (rn.role.auditor != nullptr) {
      out.detections += rn.role.auditor->metrics().mismatches_found;
    }
    if (rn.role.master != nullptr) {
      out.liar_excluded =
          out.liar_excluded || rn.role.master->IsExcluded(liar_node);
    }
  }
  return out;
}

TEST(EnvParityTest, SameWorkloadSameOutcomesOnBothSubstrates) {
  DeploymentConfig dc = ParityConfig(11, /*with_liar=*/true);

  Outcome sim = RunOnSimEnv(dc);
  Outcome real = RunOnRealEnv(dc, /*run_seconds=*/8);

  // Both substrates agree on who the liar is (same roster ids).
  EXPECT_EQ(sim.liar_node, real.liar_node);

  // Outcome 1: the cluster made verified progress.
  EXPECT_GT(sim.reads_accepted, 0u);
  EXPECT_GT(real.reads_accepted, 0u);

  // Outcome 2: the liar lied and was detected.
  EXPECT_GT(sim.lies_told, 0u);
  EXPECT_GT(real.lies_told, 0u);
  EXPECT_GT(sim.detections, 0u);
  EXPECT_GT(real.detections, 0u);

  // Outcome 3: the same slave node is excluded, permanently.
  EXPECT_TRUE(sim.liar_excluded);
  EXPECT_TRUE(real.liar_excluded);
}

TEST(EnvParityTest, HonestClusterStaysCleanOnRealEnv) {
  // Same shape, nobody lies: reads flow, nothing is detected, nobody is
  // excluded — the false-positive side of parity.
  Outcome real =
      RunOnRealEnv(ParityConfig(12, /*with_liar=*/false), /*run_seconds=*/4);
  EXPECT_GT(real.reads_accepted, 0u);
  EXPECT_EQ(real.lies_told, 0u);
  EXPECT_EQ(real.detections, 0u);
  EXPECT_FALSE(real.liar_excluded);
}

}  // namespace
}  // namespace sdr
