// Scale-out tests: shard-map construction and placement serialization,
// rebalance determinism, group-commit pledge equivalence, multi-shard
// read freshness-token merging, non-atomic multi-shard writes, the
// chaos invariants at --shards=4, and per-role totals over every node.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/chaos/runner.h"
#include "src/core/cluster.h"
#include "src/core/shard.h"
#include "src/util/rng.h"

namespace sdr {
namespace {

std::vector<std::string> CatalogKeys(int n) {
  std::vector<std::string> keys;
  for (int i = 0; i < n; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "price/%05d", i);
    keys.push_back(buf);
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Placement round-trip.
// ---------------------------------------------------------------------------

TEST(ShardPlacementTest, SignedPlacementRoundTripsThroughTheWire) {
  Rng rng(11);
  KeyPair content = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer owner(content);

  ShardMap map = BuildShardMap(CatalogKeys(64), 4);
  ASSERT_EQ(map.num_shards(), 4u);
  ShardPlacement placement =
      MakeShardPlacement(owner, /*generation=*/3, map,
                         {{10, 11}, {12, 13}, {14, 15}, {16, 17}});

  Bytes wire = placement.Encode();
  auto decoded = ShardPlacement::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, placement);
  EXPECT_TRUE(VerifyShardPlacement(SignatureScheme::kEd25519,
                                   content.public_key, *decoded));
}

TEST(ShardPlacementTest, TamperedPlacementFailsVerification) {
  Rng rng(12);
  KeyPair content = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer owner(content);

  ShardPlacement placement = MakeShardPlacement(
      owner, 1, BuildShardMap(CatalogKeys(32), 2), {{10}, {11}});
  ASSERT_TRUE(VerifyShardPlacement(SignatureScheme::kEd25519,
                                   content.public_key, placement));

  // An untrusted host moving a range boundary, re-pointing a shard at a
  // master it controls, or replaying an older generation must all break
  // the content signature.
  ShardPlacement moved = placement;
  moved.map.boundaries[0] += "x";
  EXPECT_FALSE(VerifyShardPlacement(SignatureScheme::kEd25519,
                                    content.public_key, moved));
  ShardPlacement repointed = placement;
  repointed.shard_masters[1] = {666};
  EXPECT_FALSE(VerifyShardPlacement(SignatureScheme::kEd25519,
                                    content.public_key, repointed));
  ShardPlacement replayed = placement;
  replayed.generation = 0;
  EXPECT_FALSE(VerifyShardPlacement(SignatureScheme::kEd25519,
                                    content.public_key, replayed));
}

// ---------------------------------------------------------------------------
// Rebalance determinism.
// ---------------------------------------------------------------------------

TEST(ShardMapTest, BuildDependsOnlyOnTheKeySet) {
  std::vector<std::string> keys = CatalogKeys(100);
  ShardMap canonical = BuildShardMap(keys, 4);

  std::vector<std::string> shuffled = keys;
  std::mt19937 gen(99);
  std::shuffle(shuffled.begin(), shuffled.end(), gen);
  EXPECT_EQ(BuildShardMap(shuffled, 4), canonical);

  std::vector<std::string> duplicated = keys;
  duplicated.insert(duplicated.end(), keys.begin(), keys.end());
  EXPECT_EQ(BuildShardMap(duplicated, 4), canonical);
}

TEST(ShardMapTest, RebalanceAndBackReproducesTheMapBitForBit) {
  std::vector<std::string> keys = CatalogKeys(100);
  ShardMap four = BuildShardMap(keys, 4);
  ShardMap eight = BuildShardMap(keys, 8);
  EXPECT_EQ(eight.num_shards(), 8u);
  EXPECT_EQ(BuildShardMap(keys, 4), four);  // back from 8: same inputs
  EXPECT_EQ(BuildShardMap(keys, 8), eight);

  // Every key lands in exactly the shard whose [lo, hi) contains it.
  for (const std::string& key : keys) {
    uint32_t shard = four.ShardForKey(key);
    std::string lo = four.ShardLo(shard);
    std::string hi = four.ShardHi(shard);
    EXPECT_TRUE(lo.empty() || lo <= key) << key;
    EXPECT_TRUE(hi.empty() || key < hi) << key;
  }
}

// ---------------------------------------------------------------------------
// Group-commit pledge equivalence.
// ---------------------------------------------------------------------------

ClusterConfig WriteHeavyConfig(uint64_t seed, uint32_t commit_batch) {
  ClusterConfig config;
  config.seed = seed;
  config.num_masters = 2;
  config.slaves_per_master = 2;
  config.num_clients = 4;
  config.corpus.n_items = 50;
  config.mix.n_items = 50;
  config.write_gen.n_items = 50;
  config.params.scheme = SignatureScheme::kHmacSha256;
  // A 250ms cap keeps closed-loop writers from starving the read stream,
  // and a window most of that wide lets bundles actually fill.
  config.params.max_latency = 250 * kMillisecond;
  config.params.keepalive_period = 125 * kMillisecond;
  config.params.commit_batch = commit_batch;
  config.params.commit_window = 200 * kMillisecond;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 50 * kMillisecond;
  config.client_write_fraction = 0.3;
  return config;
}

TEST(GroupCommitTest, BatchedPledgesVerifyIdenticallyToUnbatched) {
  // Same seed, same load; the only difference is the bundle size. Pledges
  // derived from bundled commits must verify exactly like one-write
  // commits: every accepted read carries a verified pledge (clients fail
  // reads otherwise), ground truth agrees, and the auditor's re-execution
  // finds nothing.
  for (uint32_t batch : {1u, 8u}) {
    Cluster cluster(WriteHeavyConfig(21, batch));
    cluster.RunFor(30 * kSecond);
    auto totals = cluster.ComputeTotals();
    SCOPED_TRACE("commit_batch=" + std::to_string(batch));
    EXPECT_GT(totals.clients.reads_accepted, 100u);
    EXPECT_GT(totals.masters.writes_committed, 0u);
    EXPECT_EQ(cluster.accepted_wrong(), 0u);
    EXPECT_EQ(totals.clients.double_check_mismatches, 0u);
    EXPECT_GT(cluster.auditor().metrics().pledges_received, 0u);
    EXPECT_EQ(cluster.auditor().metrics().mismatches_found, 0u);
    // Every commit is one bundle: a write alone at batch 1, and fewer
    // commits than writes once bundles fill.
    if (batch > 1) {
      EXPECT_LT(totals.masters.batches_committed,
                totals.masters.writes_committed);
    } else {
      EXPECT_EQ(totals.masters.batches_committed,
                totals.masters.writes_committed);
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-shard read freshness-token merge.
// ---------------------------------------------------------------------------

TEST(ShardedClusterTest, MultiShardReadMergesResultsAndFreshTokens) {
  ClusterConfig config;
  config.seed = 31;
  config.num_shards = 4;
  config.num_masters = 1;
  config.slaves_per_master = 2;
  config.num_clients = 2;
  config.corpus.n_items = 80;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.client_mode = Client::LoadMode::kManual;
  Cluster cluster(config);
  cluster.RunFor(3 * kSecond);  // setup + first keep-alives
  ASSERT_TRUE(cluster.client(0).ready());

  // A whole-keyspace COUNT must fan out to every shard and merge to the
  // unsharded answer (three catalog rows per item); acceptance requires
  // every per-shard leg to carry a verified pledge with a fresh token.
  bool accepted = false;
  QueryResult merged;
  cluster.client(0).IssueRead(Query::Aggregate(QueryKind::kCount),
                              [&](bool ok, const QueryResult& result) {
                                accepted = ok;
                                merged = result;
                              });
  cluster.RunFor(2 * kSecond);
  ASSERT_TRUE(accepted);
  EXPECT_EQ(merged.scalar, 3 * 80);

  const ClientMetrics& cm = cluster.client(0).metrics();
  EXPECT_EQ(cm.shard_subreads_issued, 4u);
  EXPECT_EQ(cm.shard_subreads_accepted, 4u);
  // The merge's freshness is bounded by the oldest per-shard token, which
  // keep-alives keep within the paper's max_latency staleness bound.
  ASSERT_GT(cm.merged_token_age_us.count(), 0u);
  EXPECT_LE(cm.merged_token_age_us.Quantile(1.0),
            static_cast<double>(config.params.max_latency));
}

// ---------------------------------------------------------------------------
// Multi-shard writes commit shard by shard (docs/PROTOCOL.md).
// ---------------------------------------------------------------------------

TEST(ShardedClusterTest, MultiShardWriteCommitsShardByShard) {
  ClusterConfig config;
  config.seed = 41;
  config.num_shards = 2;
  config.num_masters = 1;
  config.slaves_per_master = 2;
  config.num_clients = 2;
  config.corpus.n_items = 40;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.max_latency = 500 * kMillisecond;
  config.params.keepalive_period = 250 * kMillisecond;
  config.client_mode = Client::LoadMode::kManual;
  Cluster cluster(config);
  cluster.RunFor(3 * kSecond);  // setup + first keep-alives
  ASSERT_TRUE(cluster.client(0).ready());

  // One key per shard; shard 1's master cannot reach the writer.
  const ShardMap& map = cluster.shard_map();
  const std::string key0 = "price/00000";
  const std::string key1 = "price/00039";
  ASSERT_EQ(map.ShardForKey(key0), 0u);
  ASSERT_EQ(map.ShardForKey(key1), 1u);
  const NodeId writer = cluster.client(0).id();
  const NodeId shard1_master = cluster.master(1).id();
  cluster.net().SetPartitioned(writer, shard1_master, true);

  int callbacks = 0;
  bool committed = false;
  cluster.client(0).IssueWrite(
      {WriteOp::Put(key0, "100"), WriteOp::Put(key1, "200")},
      [&](bool ok, uint64_t) {
        ++callbacks;
        committed = ok;
      });
  cluster.RunFor(2 * kSecond);

  // Shard 0's sub-write is committed on its own, while the parent write
  // has reported nothing: it succeeds only once every sub-write commits.
  EXPECT_EQ(cluster.master(0).version(), 1u);
  EXPECT_EQ(cluster.master(1).version(), 0u);
  EXPECT_EQ(cluster.client(0).metrics().shard_subwrites_committed, 1u);
  EXPECT_EQ(callbacks, 0);

  // The write is half applied: another client already reads shard 0's
  // new value, and shard 1's old one.
  int reads_done = 0;
  cluster.client(1).IssueRead(
      Query::Get(key0), [&](bool accepted, const QueryResult& result) {
        ++reads_done;
        ASSERT_TRUE(accepted);
        ASSERT_EQ(result.rows.size(), 1u);
        EXPECT_EQ(result.rows[0].second, "100");
      });
  cluster.client(1).IssueRead(
      Query::Get(key1), [&](bool accepted, const QueryResult& result) {
        ++reads_done;
        ASSERT_TRUE(accepted);
        ASSERT_EQ(result.rows.size(), 1u);
        EXPECT_NE(result.rows[0].second, "200");
      });
  cluster.RunFor(2 * kSecond);
  EXPECT_EQ(reads_done, 2);
  EXPECT_EQ(callbacks, 0);

  // The unreachable shard's sub-write is retried, not dropped: after the
  // partition heals it commits and the parent reports success once.
  cluster.net().SetPartitioned(writer, shard1_master, false);
  cluster.RunFor(20 * kSecond);
  EXPECT_EQ(cluster.master(1).version(), 1u);
  EXPECT_EQ(callbacks, 1);
  EXPECT_TRUE(committed);
}

// ---------------------------------------------------------------------------
// Chaos invariants at four shards.
// ---------------------------------------------------------------------------

TEST(ShardedChaosTest, InvariantsHoldPerShardAtFourShards) {
  ClusterConfig config;
  config.seed = 5;
  config.num_shards = 4;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 50 * kMillisecond;
  config.client_write_fraction = 0.2;
  config.corpus.n_items = 80;
  config.mix.n_items = 80;
  config.write_gen.n_items = 80;

  // The acceptance scenario shape from the unsharded sweep: a slave turns
  // malicious mid-run, then heals. Every existing invariant must hold with
  // the keyspace split four ways — detection, exclusion and freshness are
  // all per-shard properties now.
  auto scenario = ParseScenario(
      "at 5s set_behavior slave:0 lie_probability=0.5; at 20s heal all");
  ASSERT_TRUE(scenario.ok());
  Cluster cluster(config);
  ChaosController controller(&cluster, *scenario,
                             DefaultCheckers(cluster.config()));
  controller.Install();
  cluster.RunFor(40 * kSecond);
  controller.Finish();
  for (const Violation& v : controller.violations()) {
    ADD_FAILURE() << v.ToString();
  }
  Cluster::Totals totals = cluster.ComputeTotals();
  EXPECT_GT(totals.clients.reads_accepted, 0u);
  // Wrong accepts may happen while the liar is live; the invariant (and
  // the point of per-shard detection) is that each one is matched by
  // double-check or audit evidence, never silent.
  if (cluster.accepted_wrong() > 0) {
    EXPECT_GT(totals.clients.double_check_mismatches +
                  totals.auditors.mismatches_found,
              0u);
  }
}

TEST(ShardedExclusionTest, LiarOutsideShardZeroIsReportedExcluded) {
  ClusterConfig config;
  config.seed = 3;
  config.num_shards = 4;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 50 * kMillisecond;
  config.corpus.n_items = 80;
  config.mix.n_items = 80;
  Cluster cluster(config);
  // The first slave of the last shard lies on every read.
  const int liar = 3 * cluster.slaves_per_shard();
  Slave::Behavior lying;
  lying.lie_probability = 1.0;
  cluster.slave(liar).SetBehavior(lying);
  cluster.RunFor(30 * kSecond);

  // Only its own shard's masters exclude it, so a report that asks only
  // shard 0's masters would call it not excluded.
  const NodeId id = cluster.slave(liar).id();
  EXPECT_TRUE(cluster.ExcludedByAnyMaster(id));
  for (int m = 0; m < cluster.masters_per_shard(); ++m) {
    EXPECT_FALSE(cluster.master(m).IsExcluded(id)) << "master " << m;
  }
}

// ---------------------------------------------------------------------------
// Totals: one accumulation per role, over every node.
// ---------------------------------------------------------------------------

// Every field ForEachMetric visits, in order: a counter's value, or a
// histogram's sample count.
template <typename M>
std::vector<std::pair<std::string, uint64_t>> Flatten(const M& m) {
  std::vector<std::pair<std::string, uint64_t>> out;
  ForEachMetric(m, [&](const char* name, const auto& value) {
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 LatencyHistogram>) {
      out.emplace_back(name, value.count());
    } else {
      out.emplace_back(name, value);
    }
  });
  return out;
}

// `total` must be the field-by-field sum of `nodes`, and its JSON export
// must hold exactly one key per counter (p50 and p99 per histogram).
template <typename M>
void ExpectSumOfNodes(const std::string& role, const M& total,
                      const std::vector<const M*>& nodes) {
  SCOPED_TRACE(role);
  std::vector<std::pair<std::string, uint64_t>> sum = Flatten(M{});
  for (const M* node : nodes) {
    std::vector<std::pair<std::string, uint64_t>> fields = Flatten(*node);
    for (size_t i = 0; i < fields.size(); ++i) {
      sum[i].second += fields[i].second;
    }
  }
  EXPECT_EQ(Flatten(total), sum);

  const std::string json = MetricsJson(total).Dump();
  size_t keys = 0;
  ForEachMetric(total, [&](const char* name, const auto& value) {
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 LatencyHistogram>) {
      std::string stem(name);
      stem.resize(stem.size() - 3);
      EXPECT_NE(json.find('"' + stem + "_p50_us\":"), std::string::npos);
      EXPECT_NE(json.find('"' + stem + "_p99_us\":"), std::string::npos);
      keys += 2;
    } else {
      const std::string entry =
          '"' + std::string(name) + "\":" + std::to_string(value);
      EXPECT_TRUE(json.find(entry + ",") != std::string::npos ||
                  json.find(entry + "}") != std::string::npos)
          << entry;
      ++keys;
    }
  });
  // Every value is a number, so each key contributes exactly one colon.
  EXPECT_EQ(static_cast<size_t>(std::count(json.begin(), json.end(), ':')),
            keys);
}

TEST(ClusterTotalsTest, EveryCounterOfEveryRoleSumsOverItsNodes) {
  ClusterConfig config;
  config.seed = 17;
  config.num_shards = 2;
  config.num_masters = 1;
  config.slaves_per_master = 2;
  config.num_clients = 2;
  config.corpus.n_items = 40;
  config.mix.n_items = 40;
  config.write_gen.n_items = 40;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.commit_batch = 4;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_write_fraction = 0.1;
  config.fleet_clients = 200;
  config.fleet_write_fraction = 0.05;
  Cluster cluster(config);
  cluster.RunFor(10 * kSecond);

  std::vector<const ClientMetrics*> clients;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    clients.push_back(&cluster.client(i).metrics());
  }
  std::vector<const MasterMetrics*> masters;
  for (int i = 0; i < cluster.num_masters(); ++i) {
    masters.push_back(&cluster.master(i).metrics());
  }
  std::vector<const SlaveMetrics*> slaves;
  for (int i = 0; i < cluster.num_slaves(); ++i) {
    slaves.push_back(&cluster.slave(i).metrics());
  }
  std::vector<const AuditorMetrics*> auditors;
  for (int i = 0; i < cluster.num_auditors(); ++i) {
    auditors.push_back(&cluster.auditor(i).metrics());
  }
  ASSERT_NE(cluster.fleet(), nullptr);
  const Cluster::Totals totals = cluster.ComputeTotals();
  ExpectSumOfNodes("clients", totals.clients, clients);
  ExpectSumOfNodes("masters", totals.masters, masters);
  ExpectSumOfNodes("slaves", totals.slaves, slaves);
  ExpectSumOfNodes("auditors", totals.auditors, auditors);
  ExpectSumOfNodes("fleet", totals.fleet, {&cluster.fleet()->metrics()});
  // The run exercised every role, the fleet included.
  EXPECT_GT(totals.clients.reads_accepted, 0u);
  EXPECT_GT(totals.masters.writes_committed, 0u);
  EXPECT_GT(totals.slaves.reads_served, 0u);
  EXPECT_GT(totals.auditors.pledges_audited, 0u);
  EXPECT_GT(totals.fleet.reads_accepted, 0u);
  EXPECT_GT(totals.fleet.sig_cache_hits, 0u);

  // The per-shard sums partition the cluster's.
  std::vector<const MasterMetrics*> shard_masters;
  std::vector<const SlaveMetrics*> shard_slaves;
  std::vector<const AuditorMetrics*> shard_auditors;
  std::vector<Cluster::Totals> shards;
  for (int sh = 0; sh < cluster.num_shards(); ++sh) {
    shards.push_back(cluster.ComputeShardTotals(sh));
  }
  for (const Cluster::Totals& shard : shards) {
    shard_masters.push_back(&shard.masters);
    shard_slaves.push_back(&shard.slaves);
    shard_auditors.push_back(&shard.auditors);
    EXPECT_GT(shard.slaves.reads_served, 0u);
  }
  ExpectSumOfNodes("shard masters", totals.masters, shard_masters);
  ExpectSumOfNodes("shard slaves", totals.slaves, shard_slaves);
  ExpectSumOfNodes("shard auditors", totals.auditors, shard_auditors);
}

}  // namespace
}  // namespace sdr
