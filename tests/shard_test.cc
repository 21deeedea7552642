// Scale-out tests: shard-map construction and placement serialization,
// rebalance determinism, group-commit pledge equivalence, multi-shard
// multiread freshness-token merging, and the chaos invariants at
// --shards=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

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
  // Same seed, same load; the only difference is group commit. Pledges
  // derived from the batch certificate must verify exactly like per-write
  // pledges: every accepted read carries a verified pledge (clients fail
  // reads otherwise), ground truth agrees, and the auditor's re-execution
  // finds nothing.
  for (uint32_t batch : {1u, 8u}) {
    Cluster cluster(WriteHeavyConfig(21, batch));
    cluster.RunFor(30 * kSecond);
    auto totals = cluster.ComputeTotals();
    SCOPED_TRACE("commit_batch=" + std::to_string(batch));
    EXPECT_GT(totals.reads_accepted, 100u);
    EXPECT_GT(totals.writes_committed_masters, 0u);
    EXPECT_EQ(cluster.accepted_wrong(), 0u);
    EXPECT_EQ(totals.double_check_mismatches, 0u);
    EXPECT_GT(cluster.auditor().metrics().pledges_received, 0u);
    EXPECT_EQ(cluster.auditor().metrics().mismatches_found, 0u);
    if (batch > 1) {
      EXPECT_GT(totals.batches_committed, 0u);
    } else {
      EXPECT_EQ(totals.batches_committed, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-shard multiread freshness-token merge.
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
  EXPECT_GT(totals.reads_accepted, 0u);
  // Wrong accepts may happen while the liar is live; the invariant (and
  // the point of per-shard detection) is that each one is matched by
  // double-check or audit evidence, never silent.
  if (cluster.accepted_wrong() > 0) {
    EXPECT_GT(totals.double_check_mismatches + totals.auditor_mismatches, 0u);
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

}  // namespace
}  // namespace sdr
