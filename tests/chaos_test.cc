// Tests for the chaos scenario engine: the text grammar and builder, the
// controller's selector resolution and event application, and each
// invariant checker — both passing on an honest cluster and firing on a
// deliberately broken one.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/chaos/runner.h"

namespace sdr {
namespace {

using Role = NodeSelector::Role;

// ---------------------------------------------------------------------------
// Times.
// ---------------------------------------------------------------------------

TEST(ChaosTimeTest, ParsesUnits) {
  EXPECT_EQ(*ParseSimTime("10s"), 10 * kSecond);
  EXPECT_EQ(*ParseSimTime("250ms"), 250 * kMillisecond);
  EXPECT_EQ(*ParseSimTime("1.5s"), 1500 * kMillisecond);
  EXPECT_EQ(*ParseSimTime("7us"), 7);
  EXPECT_EQ(*ParseSimTime("2m"), 2 * kMinute);
}

TEST(ChaosTimeTest, RejectsGarbage) {
  EXPECT_FALSE(ParseSimTime("10").ok());        // no unit
  EXPECT_FALSE(ParseSimTime("10parsecs").ok());  // unknown unit
  EXPECT_FALSE(ParseSimTime("-5s").ok());        // negative
  EXPECT_FALSE(ParseSimTime("s").ok());          // no magnitude
}

TEST(ChaosTimeTest, FormatRoundTrips) {
  for (SimTime t : {SimTime{0}, 7 * kMicrosecond, 250 * kMillisecond,
                    10 * kSecond, 90 * kSecond}) {
    EXPECT_EQ(*ParseSimTime(FormatSimTime(t)), t) << FormatSimTime(t);
  }
}

// ---------------------------------------------------------------------------
// Selectors.
// ---------------------------------------------------------------------------

NodeSelector Index(Role role, int index) {
  return {role, NodeSelector::Pick::kIndex, index};
}

NodeSelector All(Role role) { return {role, NodeSelector::Pick::kAll, 0}; }

TEST(NodeSelectorTest, ParsesAllForms) {
  EXPECT_EQ(*NodeSelector::Parse("slave:2"),
            Index(Role::kSlave, 2));
  EXPECT_EQ(*NodeSelector::Parse("slaves:*"), All(Role::kSlave));
  EXPECT_EQ(NodeSelector::Parse("slaves:odd")->pick, NodeSelector::Pick::kOdd);
  EXPECT_EQ(NodeSelector::Parse("slaves:even")->pick,
            NodeSelector::Pick::kEven);
  EXPECT_EQ(*NodeSelector::Parse("masters:*"),
            All(Role::kMaster));
  EXPECT_EQ(*NodeSelector::Parse("auditor:0"),
            Index(Role::kAuditor, 0));
  EXPECT_EQ(*NodeSelector::Parse("clients:*"),
            All(Role::kClient));
  EXPECT_EQ(*NodeSelector::Parse("all"), NodeSelector::Everything());
  EXPECT_EQ(*NodeSelector::Parse("random:3"), NodeSelector::RandomSlaves(3));
}

TEST(NodeSelectorTest, RejectsBadSelectors) {
  EXPECT_FALSE(NodeSelector::Parse("gremlins:*").ok());
  EXPECT_FALSE(NodeSelector::Parse("slave").ok());     // missing pick
  EXPECT_FALSE(NodeSelector::Parse("slave:-1").ok());  // negative index
  EXPECT_FALSE(NodeSelector::Parse("random:0").ok());  // k must be >= 1
  EXPECT_FALSE(NodeSelector::Parse("slave:first").ok());
}

TEST(NodeSelectorTest, ToStringRoundTrips) {
  for (const char* text : {"slave:2", "slaves:*", "slaves:odd", "slaves:even",
                           "masters:*", "master:1", "auditors:*", "clients:*",
                           "all", "random:3"}) {
    auto sel = NodeSelector::Parse(text);
    ASSERT_TRUE(sel.ok()) << text;
    EXPECT_EQ(sel->ToString(), text);
  }
}

// ---------------------------------------------------------------------------
// Scenario parsing.
// ---------------------------------------------------------------------------

TEST(ScenarioParseTest, ParsesTheAcceptanceScenario) {
  auto scenario = ParseScenario(
      "at 10s set_behavior slave:2 lie_probability=0.2; "
      "at 40s partition slave:2 master:*; at 60s heal all");
  ASSERT_TRUE(scenario.ok());
  ASSERT_EQ(scenario->events.size(), 3u);
  EXPECT_EQ(scenario->events[0].at, 10 * kSecond);
  EXPECT_EQ(scenario->events[0].type, ChaosEvent::Type::kSetBehavior);
  EXPECT_EQ(scenario->events[0].patch.lie_probability, 0.2);
  EXPECT_EQ(scenario->events[1].type, ChaosEvent::Type::kPartition);
  EXPECT_EQ(scenario->events[1].b, All(Role::kMaster));
  EXPECT_EQ(scenario->events[2].type, ChaosEvent::Type::kHealAll);
}

TEST(ScenarioParseTest, RoundTripsThroughToString) {
  const char* kTexts[] = {
      "at 10s crash slave:2",
      "at 1500ms restart slaves:odd",
      "at 5s partition slaves:* masters:*; at 20s heal slaves:* masters:*",
      "at 3s heal all",
      "at 2s set_link slave:0 master:0 latency=40ms jitter=10ms loss=0.1",
      "at 8s set_behavior slaves:even lie_probability=0.3 "
      "serve_despite_stale=true",
      "at 4s burst_writes clients:* count=25",
      "at 6s pause_auditor auditor:0; at 9s resume_auditor auditors:*",
      "at 7s crash random:2",
  };
  for (const char* text : kTexts) {
    auto first = ParseScenario(text);
    ASSERT_TRUE(first.ok()) << text;
    auto second = ParseScenario(first->ToString());
    ASSERT_TRUE(second.ok()) << first->ToString();
    EXPECT_EQ(*first, *second) << text;
  }
}

TEST(ScenarioParseTest, SortsOutOfOrderStatements) {
  auto scenario =
      ParseScenario("at 30s heal all; at 10s crash slave:0; at 20s restart "
                    "slave:0");
  ASSERT_TRUE(scenario.ok());
  ASSERT_EQ(scenario->events.size(), 3u);
  EXPECT_EQ(scenario->events[0].at, 10 * kSecond);
  EXPECT_EQ(scenario->events[1].at, 20 * kSecond);
  EXPECT_EQ(scenario->events[2].at, 30 * kSecond);
}

TEST(ScenarioParseTest, EmptyAndBlankInputsAreEmptyScenarios) {
  EXPECT_TRUE(ParseScenario("")->empty());
  EXPECT_TRUE(ParseScenario("  ;  ; ")->empty());
}

TEST(ScenarioParseTest, RejectsBadInput) {
  const char* kBad[] = {
      "crash slave:0",                              // missing "at <time>"
      "at 10s",                                     // missing verb
      "at 10s explode slave:0",                     // unknown verb
      "at 10s crash",                               // missing selector
      "at 10s crash slave:0 slave:1",               // too many selectors
      "at 10s partition slave:0",                   // one selector
      "at 10s set_behavior master:0 lie_probability=0.5",  // wrong role
      "at 10s set_behavior slave:0",                // no fields
      "at 10s set_behavior slave:0 lie_probability=1.5",   // out of [0,1]
      "at 10s set_behavior slave:0 charisma=0.9",   // unknown field
      "at 10s set_behavior slave:0 ignore_updates=maybe",  // bad bool
      "at 10s set_link slave:0 master:0 latency=fast",
      "at 10s set_link slave:0 master:0 loss=2",
      "at 10s burst_writes slave:0",                // wrong role
      "at 10s burst_writes clients:* count=0",
      "at 10s pause_auditor slave:0",               // wrong role
      "at tomorrow crash slave:0",                  // bad time
  };
  for (const char* text : kBad) {
    EXPECT_FALSE(ParseScenario(text).ok()) << text;
  }
}

// ---------------------------------------------------------------------------
// Controller: selector resolution and event application.
// ---------------------------------------------------------------------------

ClusterConfig FastConfig(uint64_t seed = 1) {
  ClusterConfig config;
  config.seed = seed;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 50 * kMillisecond;
  config.corpus.n_items = 50;
  config.mix.n_items = 50;
  config.write_gen.n_items = 50;
  return config;
}

ChaosController MakeController(Cluster& cluster, const std::string& text) {
  auto scenario = ParseScenario(text);
  EXPECT_TRUE(scenario.ok());
  return ChaosController(&cluster, *scenario,
                         DefaultCheckers(cluster.config()));
}

TEST(ChaosControllerTest, ResolvesSelectorsToNodeIds) {
  Cluster cluster(FastConfig());  // 2 masters, 4 slaves, 1 auditor, 4 clients
  ChaosController controller(&cluster, Scenario{}, {});

  EXPECT_EQ(controller.Resolve(Index(Role::kSlave, 1)),
            (std::vector<NodeId>{cluster.slave(1).id()}));
  EXPECT_EQ(controller.Resolve(All(Role::kMaster)),
            (std::vector<NodeId>{cluster.master(0).id(),
                                 cluster.master(1).id()}));
  EXPECT_EQ(controller.Resolve(*NodeSelector::Parse("slaves:odd")),
            (std::vector<NodeId>{cluster.slave(1).id(),
                                 cluster.slave(3).id()}));
  EXPECT_EQ(controller.Resolve(*NodeSelector::Parse("slaves:even")),
            (std::vector<NodeId>{cluster.slave(0).id(),
                                 cluster.slave(2).id()}));
  // Out-of-range index resolves to nothing rather than crashing.
  EXPECT_TRUE(controller.Resolve(Index(Role::kSlave, 99))
                  .empty());
  // "all" covers every node in the deployment.
  EXPECT_EQ(controller.Resolve(NodeSelector::Everything()).size(),
            cluster.net().node_count());

  std::vector<NodeId> random = controller.Resolve(NodeSelector::RandomSlaves(2));
  EXPECT_EQ(random.size(), 2u);
  EXPECT_EQ(std::set<NodeId>(random.begin(), random.end()).size(), 2u);
  std::set<NodeId> slaves;
  for (int s = 0; s < cluster.num_slaves(); ++s) {
    slaves.insert(cluster.slave(s).id());
  }
  for (NodeId id : random) {
    EXPECT_TRUE(slaves.count(id)) << id;
  }
  // Asking for more than exist returns everyone, once.
  EXPECT_EQ(controller.Resolve(NodeSelector::RandomSlaves(99)).size(),
            static_cast<size_t>(cluster.num_slaves()));
}

TEST(ChaosControllerTest, CrashAndRestartFollowTheTimeline) {
  Cluster cluster(FastConfig());
  ChaosController controller =
      MakeController(cluster, "at 2s crash slave:0; at 6s restart slave:0");
  controller.Install();
  NodeId victim = cluster.slave(0).id();

  cluster.RunFor(1 * kSecond);
  EXPECT_TRUE(cluster.net().node(victim)->up());
  cluster.RunFor(3 * kSecond);  // now at 4s
  EXPECT_FALSE(cluster.net().node(victim)->up());
  cluster.RunFor(4 * kSecond);  // now at 8s
  EXPECT_TRUE(cluster.net().node(victim)->up());
}

TEST(ChaosControllerTest, SetBehaviorFlipsASlaveMidRun) {
  Cluster cluster(FastConfig());
  ChaosController controller = MakeController(
      cluster, "at 5s set_behavior slave:0 lie_probability=1.0");
  controller.Install();

  cluster.RunFor(4 * kSecond);
  EXPECT_EQ(cluster.slave(0).behavior().lie_probability, 0.0);
  EXPECT_EQ(cluster.slave(0).metrics().lies_told, 0u);
  cluster.RunFor(8 * kSecond);
  EXPECT_EQ(cluster.slave(0).behavior().lie_probability, 1.0);
  EXPECT_GT(cluster.slave(0).metrics().lies_told, 0u);
}

TEST(ChaosControllerTest, PauseAndResumeAuditor) {
  Cluster cluster(FastConfig());
  ChaosController controller = MakeController(
      cluster, "at 2s pause_auditor auditor:0; at 8s resume_auditor all");
  controller.Install();

  cluster.RunFor(5 * kSecond);
  EXPECT_TRUE(cluster.auditor(0).paused());
  cluster.RunFor(10 * kSecond);
  EXPECT_FALSE(cluster.auditor(0).paused());
  // The parked backlog drained: audits happened after the resume.
  EXPECT_GT(cluster.auditor(0).metrics().pledges_audited, 0u);
}

TEST(ChaosControllerTest, PartitionAndHealAllReflectInTheNetwork) {
  Cluster cluster(FastConfig());
  ChaosController controller = MakeController(
      cluster, "at 2s partition slave:0 masters:*; at 6s heal all");
  controller.Install();

  cluster.RunFor(4 * kSecond);
  EXPECT_EQ(cluster.net().active_partitions(), 2u);  // one per master
  // A message across the cut is dropped as partitioned.
  uint64_t dropped = cluster.net().messages_dropped_partition();
  cluster.net().Send(cluster.slave(0).id(), cluster.master(0).id(),
                     ToBytes("x"));
  EXPECT_EQ(cluster.net().messages_dropped_partition(), dropped + 1);
  cluster.RunFor(4 * kSecond);
  EXPECT_EQ(cluster.net().active_partitions(), 0u);
}

// ---------------------------------------------------------------------------
// Invariant checkers on an honest cluster.
// ---------------------------------------------------------------------------

TEST(InvariantTest, HonestClusterPassesAllInvariants) {
  Cluster cluster(FastConfig());
  ChaosController controller = MakeController(cluster, "");
  controller.Install();
  cluster.RunFor(30 * kSecond);
  controller.Finish();
  for (const Violation& v : controller.violations()) {
    ADD_FAILURE() << v.ToString();
  }
  EXPECT_GT(cluster.ComputeTotals().clients.reads_accepted, 0u);
  // The auditor's paced commits must keep its version numbering aligned
  // with the masters': on a healthy run no forwarded pledge should name a
  // version the auditor has already finalized and pruned.
  EXPECT_EQ(cluster.auditor(0).metrics().pledges_version_pruned, 0u);
  EXPECT_LE(cluster.auditor(0).head_version(), cluster.master(0).version());
}

TEST(InvariantTest, LyingSlaveIsCaughtByEvidenceNotSilently) {
  // The acceptance scenario: a slave flips malicious mid-run, later gets
  // partitioned from the masters, then the network heals. Every wrong
  // accept must be matched by double-check or audit evidence — the
  // invariants hold precisely because the protocol catches the liar.
  Cluster cluster(FastConfig(3));
  ChaosController controller = MakeController(
      cluster,
      "at 5s set_behavior slave:0 lie_probability=0.5; "
      "at 20s partition slave:0 masters:*; at 30s heal all");
  controller.Install();
  cluster.RunFor(60 * kSecond);
  controller.Finish();
  for (const Violation& v : controller.violations()) {
    ADD_FAILURE() << v.ToString();
  }
  // The slave did lie, and the protocol produced evidence and punishment.
  EXPECT_GT(cluster.slave(0).metrics().lies_told, 0u);
  Cluster::Totals totals = cluster.ComputeTotals();
  EXPECT_GT(totals.clients.double_check_mismatches +
                totals.auditors.mismatches_found,
            0u);
  EXPECT_TRUE(cluster.ExcludedByAnyMaster(cluster.slave(0).id()));
}

// ---------------------------------------------------------------------------
// Each checker fires on a deliberately broken cluster.
// ---------------------------------------------------------------------------

// A cluster whose detection machinery is fully disabled: the lying slave
// is never double-checked, never audited, never excluded.
ClusterConfig BlindConfig(uint64_t seed = 1) {
  ClusterConfig config = FastConfig(seed);
  config.params.audit_enabled = false;
  config.params.double_check_probability = 0.0;
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0) {
      b.lie_probability = 0.8;
    }
    return b;
  };
  return config;
}

template <typename Checker, typename... Args>
std::vector<std::unique_ptr<InvariantChecker>> Only(Args&&... args) {
  std::vector<std::unique_ptr<InvariantChecker>> checkers;
  checkers.push_back(std::make_unique<Checker>(std::forward<Args>(args)...));
  return checkers;
}

TEST(InvariantTest, NoWrongReadUndetectedFiresOnBlindCluster) {
  Cluster cluster(BlindConfig());
  ChaosController controller(&cluster, Scenario{},
                             Only<NoWrongReadUndetected>(2 * kSecond));
  controller.Install();
  cluster.RunFor(20 * kSecond);
  controller.Finish();
  std::vector<Violation> violations = controller.violations();
  ASSERT_EQ(violations.size(), 1u);
  const Violation& v = violations[0];
  EXPECT_EQ(v.invariant, "NoWrongReadUndetected");
  EXPECT_EQ(v.seed, cluster.config().seed);
  EXPECT_GT(v.time, 0);
  EXPECT_NE(v.evidence.find("wrong read accepted"), std::string::npos);
}

TEST(InvariantTest, DetectionLatencyBoundFiresWhenNoMasterExcludes) {
  Cluster cluster(BlindConfig());
  ChaosController controller(&cluster, Scenario{},
                             Only<DetectionLatencyBound>(2 * kSecond));
  controller.Install();
  cluster.RunFor(20 * kSecond);
  controller.Finish();
  ASSERT_EQ(controller.violations().size(), 1u);
  EXPECT_EQ(controller.violations()[0].invariant, "DetectionLatencyBound");
  EXPECT_NE(controller.violations()[0].evidence.find("consistent lies"),
            std::string::npos);
}

TEST(InvariantTest, ExclusionPermanentFiresOnReadAfterExclusion) {
  // Run a real cluster until the lying slave is excluded, then feed the
  // checker a synthetic accepted read from the excluded slave, dated after
  // the grace window.
  ClusterConfig config = FastConfig(2);
  config.params.double_check_probability = 0.5;  // fast catch
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0) {
      b.lie_probability = 0.8;
    }
    return b;
  };
  Cluster cluster(config);
  NodeId liar = cluster.slave(0).id();
  for (int i = 0; i < 60 && !cluster.ExcludedByAnyMaster(liar); ++i) {
    cluster.RunFor(1 * kSecond);
  }
  ASSERT_TRUE(cluster.ExcludedByAnyMaster(liar));

  ExclusionPermanent checker(/*grace=*/1 * kSecond);
  std::vector<Cluster::AcceptedRead> reads;
  ChaosContext ctx{&cluster, config.seed, 250 * kMillisecond, &reads};
  checker.OnTick(ctx);  // observes the exclusion
  EXPECT_FALSE(checker.violated());

  cluster.RunFor(5 * kSecond);  // move past the grace window
  reads.push_back(Cluster::AcceptedRead{.client_index = 0,
                                        .slave = liar,
                                        .accepted_at = cluster.sim().Now()});
  checker.OnTick(ctx);
  ASSERT_TRUE(checker.violated());
  EXPECT_NE(checker.violation()->evidence.find("was excluded"),
            std::string::npos);
}

TEST(InvariantTest, ExclusionSurvivesTheExcludingMastersCrash) {
  // The excluding master crashes after excluding a liar. The survivor
  // divides the dead master's slave set among the living, and must leave
  // the excluded slave out of it: the exclusion reached it by gossip.
  ClusterConfig config = FastConfig(2);
  config.params.double_check_probability = 0.5;  // fast catch
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0) {
      b.lie_probability = 0.8;
    }
    return b;
  };
  Cluster cluster(config);
  const NodeId liar = cluster.slave(0).id();
  for (int i = 0; i < 60 && !cluster.ExcludedByAnyMaster(liar); ++i) {
    cluster.RunFor(1 * kSecond);
  }
  ASSERT_TRUE(cluster.ExcludedByAnyMaster(liar));
  ASSERT_EQ(cluster.num_masters(), 2);
  const int excluder = cluster.master(0).IsExcluded(liar) ? 0 : 1;
  Master& survivor = cluster.master(1 - excluder);
  cluster.RunFor(2 * kSecond);  // at least one gossip round

  const NodeId dead = cluster.master(excluder).id();
  cluster.net().SetNodeUp(dead, false);
  const SimTime crashed_at = cluster.sim().Now();
  int liar_reads = 0;
  cluster.on_accepted_read = [&](const Cluster::AcceptedRead& read) {
    liar_reads += read.slave == liar ? 1 : 0;
  };
  cluster.RunFor(30 * kSecond);

  ASSERT_GT(survivor.dead_masters().count(dead), 0u);
  EXPECT_GT(survivor.metrics().slave_sets_adopted, 0u);
  std::vector<NodeId> owned = survivor.my_slave_ids();
  EXPECT_EQ(std::count(owned.begin(), owned.end(), liar), 0);
  EXPECT_EQ(liar_reads, 0) << "after the crash at " << crashed_at;
}

TEST(InvariantTest, AvailabilityFloorFiresWhenAllSlavesCrash) {
  Cluster cluster(FastConfig());
  ChaosController controller(
      &cluster, *ParseScenario("at 5s crash slaves:*"),
      Only<AvailabilityFloor>(/*min_accepts_per_second=*/0.5,
                              /*warmup=*/2 * kSecond,
                              /*min_window=*/5 * kSecond));
  controller.Install();
  cluster.RunFor(40 * kSecond);
  controller.Finish();
  ASSERT_EQ(controller.violations().size(), 1u);
  EXPECT_EQ(controller.violations()[0].invariant, "AvailabilityFloor");
}

TEST(InvariantTest, TokenFreshnessFiresWithImpossiblyTightBound) {
  // Any real delivery takes more than a microsecond, so a 1us bound makes
  // the very first accepted read a violation — proving the checker reads
  // the token age correctly.
  Cluster cluster(FastConfig());
  ChaosController controller(&cluster, Scenario{},
                             Only<TokenFreshness>(1 * kMicrosecond));
  controller.Install();
  cluster.RunFor(10 * kSecond);
  controller.Finish();
  ASSERT_EQ(controller.violations().size(), 1u);
  EXPECT_EQ(controller.violations()[0].invariant, "TokenFreshness");
}

// ---------------------------------------------------------------------------
// Seed sweep.
// ---------------------------------------------------------------------------

TEST(SeedSweepTest, ReportsPerSeedVerdictsAndIsDeterministic) {
  ClusterConfig config = FastConfig();
  auto scenario =
      ParseScenario("at 3s set_behavior slave:0 lie_probability=0.5");
  ASSERT_TRUE(scenario.ok());
  SweepOptions options;
  options.num_seeds = 3;
  options.duration = 20 * kSecond;

  SweepReport first = RunSeedSweep(config, *scenario, options);
  SweepReport second = RunSeedSweep(config, *scenario, options);

  ASSERT_EQ(first.seeds.size(), 3u);
  EXPECT_EQ(first.invariants.size(), 5u);
  EXPECT_EQ(first.seeds[0].seed, 1u);
  EXPECT_EQ(first.seeds[2].seed, 3u);
  EXPECT_EQ(first.Summary(), second.Summary());
  for (const SeedVerdict& seed : first.seeds) {
    EXPECT_GT(seed.accepted_reads, 0u);
  }
}

TEST(SeedSweepTest, ParallelSweepIsByteIdenticalPlain) {
  // The determinism gate for the parallel sweep engine: report bytes must
  // not depend on the number of worker threads. Plain run, no scenario.
  ClusterConfig config = FastConfig();
  SweepOptions options;
  options.num_seeds = 8;
  options.duration = 10 * kSecond;

  options.jobs = 1;
  SweepReport serial = RunSeedSweep(config, Scenario{}, options);
  options.jobs = 8;
  SweepReport parallel = RunSeedSweep(config, Scenario{}, options);

  ASSERT_EQ(parallel.seeds.size(), 8u);
  EXPECT_EQ(serial.invariants, parallel.invariants);
  EXPECT_EQ(serial.Summary(), parallel.Summary());
  for (size_t i = 0; i < serial.seeds.size(); ++i) {
    EXPECT_EQ(serial.seeds[i].seed, parallel.seeds[i].seed);
    EXPECT_EQ(serial.seeds[i].accepted_reads, parallel.seeds[i].accepted_reads);
  }
}

TEST(SeedSweepTest, ParallelSweepIsByteIdenticalWithChaosScenario) {
  ClusterConfig config = FastConfig();
  auto scenario = ParseScenario(
      "at 2s set_behavior slave:0 lie_probability=0.5; "
      "at 4s partition slave:1 master:*; at 7s heal all");
  ASSERT_TRUE(scenario.ok());
  SweepOptions options;
  options.num_seeds = 6;
  options.duration = 12 * kSecond;

  options.jobs = 1;
  SweepReport serial = RunSeedSweep(config, *scenario, options);
  options.jobs = 8;
  SweepReport parallel = RunSeedSweep(config, *scenario, options);

  EXPECT_EQ(serial.Summary(), parallel.Summary());
  // jobs beyond num_seeds must clamp, not crash or reorder.
  options.jobs = 64;
  SweepReport overcommitted = RunSeedSweep(config, *scenario, options);
  EXPECT_EQ(serial.Summary(), overcommitted.Summary());
}

TEST(SeedSweepTest, BlindClusterSweepPinsFirstViolatingSeed) {
  ClusterConfig config = BlindConfig();
  SweepOptions options;
  options.num_seeds = 2;
  options.duration = 15 * kSecond;
  CheckerFactory factory = [](const ClusterConfig&) {
    return Only<NoWrongReadUndetected>(2 * kSecond);
  };

  SweepReport report = RunSeedSweep(config, Scenario{}, options, factory);
  EXPECT_FALSE(report.all_passed());
  EXPECT_GT(report.failures("NoWrongReadUndetected"), 0);
  const Violation* v = report.first_violation("NoWrongReadUndetected");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->seed, 1u);  // the first seed in the sweep
  EXPECT_NE(report.Summary().find("FAIL"), std::string::npos);
}

}  // namespace
}  // namespace sdr
