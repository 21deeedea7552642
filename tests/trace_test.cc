// Observability subsystem tests: histogram bucket math, causal-id
// propagation through a live cluster (client -> slave -> auditor -> master
// verdict), binary and Chrome-JSON exporters, the sdrtrace query layer, and
// the determinism gate — two same-seed runs must export byte-identical
// traces.
#include <gtest/gtest.h>

#include "src/chaos/runner.h"
#include "src/core/cluster.h"
#include "src/trace/export.h"
#include "src/trace/histogram.h"
#include "src/trace/query.h"
#include "src/trace/trace.h"

namespace sdr {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(Histogram, SmallValuesGetExactBuckets) {
  // Below 2^kSubBits every value is its own bucket: zero error.
  for (uint64_t v = 0; v < LatencyHistogram::kSubCount; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(v), v);
  }
}

TEST(Histogram, BucketBoundariesAtPowersOfTwo) {
  // Each power of two starts a band of kSubCount sub-buckets, and lower
  // bounds are monotonically increasing with no gaps or overlaps.
  size_t prev = LatencyHistogram::BucketIndex(LatencyHistogram::kSubCount - 1);
  for (uint64_t v :
       {uint64_t{32}, uint64_t{64}, uint64_t{128}, uint64_t{1} << 20}) {
    size_t index = LatencyHistogram::BucketIndex(v);
    EXPECT_GT(index, prev);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(index), v)
        << "power of two must begin its bucket, v=" << v;
    prev = index;
  }
  for (size_t i = 1; i < 400; ++i) {
    EXPECT_GT(LatencyHistogram::BucketLowerBound(i),
              LatencyHistogram::BucketLowerBound(i - 1));
  }
}

TEST(Histogram, RelativeErrorIsBounded) {
  // Any value's bucket lower bound is within 1/kSubCount of the value.
  for (uint64_t v = 1; v < (1u << 16); v = v * 17 / 16 + 1) {
    size_t index = LatencyHistogram::BucketIndex(v);
    uint64_t lo = LatencyHistogram::BucketLowerBound(index);
    uint64_t hi = LatencyHistogram::BucketLowerBound(index + 1);
    EXPECT_LE(lo, v);
    EXPECT_LT(v, hi);
    EXPECT_LE(static_cast<double>(hi - lo),
              static_cast<double>(v) / LatencyHistogram::kSubCount + 1.0);
  }
}

TEST(Histogram, RecordAndQuantiles) {
  LatencyHistogram h;
  // Every quantile of the empty histogram is 0, out-of-range q included.
  EXPECT_EQ(h.Median(), 0);
  EXPECT_EQ(h.Quantile(-0.5), 0);
  EXPECT_EQ(h.Quantile(2.0), 0);
  for (int64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);
  // Nearest-rank on a log-bucketed histogram: within the ~3.1% bucket
  // width of the exact quantile.
  EXPECT_NEAR(static_cast<double>(h.Median()), 500.0, 500.0 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.P99()), 990.0, 990.0 * 0.04);
  EXPECT_EQ(h.Quantile(0.0), 1);
  // The top quantile reports its bucket's lower bound, clamped to max.
  EXPECT_LE(h.Quantile(1.0), h.max());
  EXPECT_GE(static_cast<double>(h.Quantile(1.0)),
            static_cast<double>(h.max()) * 0.96);
  // q outside [0, 1] clamps.
  EXPECT_EQ(h.Quantile(-1.0), h.Quantile(0.0));
  EXPECT_EQ(h.Quantile(7.0), h.Quantile(1.0));
}

TEST(Histogram, NegativeValuesClampToZero) {
  LatencyHistogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, MergeMatchesRecordingEverythingIntoOne) {
  LatencyHistogram a, b, all;
  for (int64_t v = 1; v < 5000; v += 7) {
    (v % 2 == 0 ? a : b).Record(v);
    all.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.buckets(), all.buckets());
  EXPECT_EQ(a.Median(), all.Median());
  EXPECT_EQ(a.P99(), all.P99());
}

// ---------------------------------------------------------------------------
// Cluster propagation
// ---------------------------------------------------------------------------

ClusterConfig LyingClusterConfig(uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.num_masters = 1;
  config.slaves_per_master = 2;
  config.num_clients = 2;
  config.corpus.n_items = 50;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.double_check_probability = 0.1;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 20 * kMillisecond;
  config.client_write_fraction = 0.02;
  config.track_ground_truth = false;
  config.slave_behavior = [](int index) {
    Slave::Behavior b;
    if (index == 0) {
      b.lie_probability = 0.5;
    }
    return b;
  };
  config.trace.enabled = true;
  return config;
}

// Runs until the liar is excluded (or the deadline passes) and returns the
// decoded trace.
TraceData RunLyingCluster(uint64_t seed, bool* excluded) {
  Cluster cluster(LyingClusterConfig(seed));
  NodeId liar = cluster.slave(0).id();
  for (int step = 0; step < 60; ++step) {
    cluster.RunFor(1 * kSecond);
    if (cluster.ExcludedByAnyMaster(liar)) {
      break;
    }
  }
  *excluded = cluster.ExcludedByAnyMaster(liar);
  EXPECT_NE(cluster.trace(), nullptr);
  return Snapshot(*cluster.trace());
}

TEST(TracePropagation, LieChainReachesExclusionAcrossRoles) {
  bool excluded = false;
  TraceData data = RunLyingCluster(101, &excluded);
  ASSERT_TRUE(excluded) << "liar was never excluded within the deadline";

  // Find the exclusion verdict and follow its evidence chain.
  TraceQuery query(data);
  auto verdicts = query.Verdicts();
  ASSERT_FALSE(verdicts.empty());
  const auto& v = verdicts.front();
  EXPECT_NE(v.id, kNoTrace) << "verdict lost its causal id";

  // The chain must span the whole protocol: the client that issued the
  // read, the slave that lied, and the trusted server that caught it.
  std::vector<TraceEvent> chain = query.Chain(v.id);
  ASSERT_GE(chain.size(), 4u);
  bool saw_client = false, saw_slave = false, saw_trusted = false;
  bool saw_exclude = false;
  for (const TraceEvent& ev : chain) {
    saw_client |= ev.role == TraceRole::kClient;
    saw_slave |= ev.role == TraceRole::kSlave;
    saw_trusted |=
        ev.role == TraceRole::kMaster || ev.role == TraceRole::kAuditor;
    saw_exclude |= data.Name(ev.name) == "master.exclude";
    // Events in a chain are emitted in nondecreasing sim-time order.
    EXPECT_GE(ev.time, chain.front().time);
  }
  EXPECT_TRUE(saw_client);
  EXPECT_TRUE(saw_slave);
  EXPECT_TRUE(saw_trusted);
  EXPECT_TRUE(saw_exclude);

  // The minted id encodes the issuing client: top 32 bits are its node id.
  uint32_t minting_node = static_cast<uint32_t>(v.id >> 32);
  auto it = data.nodes.find(minting_node);
  ASSERT_NE(it, data.nodes.end());
  EXPECT_EQ(it->second.role, TraceRole::kClient);
}

TEST(TracePropagation, HistogramsPopulatedByLiveRun) {
  bool excluded = false;
  TraceData data = RunLyingCluster(101, &excluded);
  auto merged = data.MergedHistograms();
  EXPECT_GT(merged["read_rtt_us"].count(), 0u);
  EXPECT_GT(merged["detection_latency_us"].count(), 0u);
  // RTT of a 20ms-think closed loop over 5ms links: plausibly bounded.
  EXPECT_GT(merged["read_rtt_us"].Median(), 0);
  EXPECT_LT(merged["read_rtt_us"].Median(), 1000000);
}

TEST(TracePropagation, TracingOffRecordsNothingAndSinkIsNull) {
  ClusterConfig config = LyingClusterConfig(101);
  config.trace.enabled = false;
  Cluster cluster(config);
  cluster.RunFor(2 * kSecond);
  EXPECT_EQ(cluster.trace(), nullptr);
  EXPECT_EQ(cluster.sim().trace(), nullptr);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(TraceExport, BinaryRoundTripIsLossless) {
  bool excluded = false;
  TraceData data = RunLyingCluster(101, &excluded);
  Bytes encoded = EncodeTrace(data);
  auto decoded = DecodeTrace(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();

  EXPECT_EQ(decoded->names, data.names);
  ASSERT_EQ(decoded->events.size(), data.events.size());
  for (size_t i = 0; i < data.events.size(); ++i) {
    EXPECT_EQ(decoded->events[i].time, data.events[i].time);
    EXPECT_EQ(decoded->events[i].trace_id, data.events[i].trace_id);
    EXPECT_EQ(decoded->events[i].value, data.events[i].value);
    EXPECT_EQ(decoded->events[i].node, data.events[i].node);
    EXPECT_EQ(decoded->events[i].name, data.events[i].name);
    EXPECT_EQ(decoded->events[i].type, data.events[i].type);
    EXPECT_EQ(decoded->events[i].role, data.events[i].role);
  }
  ASSERT_EQ(decoded->nodes.size(), data.nodes.size());
  for (const auto& [node, info] : data.nodes) {
    ASSERT_TRUE(decoded->nodes.count(node));
    EXPECT_EQ(decoded->nodes.at(node).role, info.role);
    EXPECT_EQ(decoded->nodes.at(node).label, info.label);
  }
  ASSERT_EQ(decoded->histograms.size(), data.histograms.size());
  for (size_t i = 0; i < data.histograms.size(); ++i) {
    EXPECT_EQ(decoded->histograms[i].name, data.histograms[i].name);
    EXPECT_EQ(decoded->histograms[i].hist.count(),
              data.histograms[i].hist.count());
    EXPECT_EQ(decoded->histograms[i].hist.buckets(),
              data.histograms[i].hist.buckets());
    EXPECT_EQ(decoded->histograms[i].hist.min(), data.histograms[i].hist.min());
    EXPECT_EQ(decoded->histograms[i].hist.max(), data.histograms[i].hist.max());
  }
  EXPECT_EQ(decoded->dropped, data.dropped);

  // And the re-encoding is byte-identical.
  EXPECT_EQ(EncodeTrace(*decoded), encoded);
}

TEST(TraceExport, DecodeRejectsCorruptInput) {
  EXPECT_FALSE(DecodeTrace(Bytes{}).ok());
  EXPECT_FALSE(DecodeTrace(Bytes{1, 2, 3, 4, 5, 6, 7, 8}).ok());
  bool excluded = false;
  Bytes good = EncodeTrace(RunLyingCluster(101, &excluded));
  // Truncations must be rejected, never crash.
  for (size_t cut : {size_t{0}, size_t{5}, good.size() / 2, good.size() - 1}) {
    Bytes truncated(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeTrace(truncated).ok()) << "cut=" << cut;
  }
}

TEST(TraceExport, ChromeJsonGolden) {
  // A hand-built sink with one span, one instant, and one counter must
  // serialize to exactly this document (byte-stable contract).
  Simulator sim(1);
  TraceSink sink(&sim, TraceSink::Options{16, false});
  sink.RegisterNode(1, TraceRole::kClient, "client 0");
  sim.ScheduleAt(10, [&] {
    sink.SpanBegin(TraceRole::kClient, 1, "read", MintTraceId(1, 7));
  });
  sim.ScheduleAt(25, [&] {
    sink.SpanEnd(TraceRole::kClient, 1, "read", MintTraceId(1, 7), 1);
    sink.Instant(TraceRole::kClient, 1, "note");
    sink.Counter(TraceRole::kClient, 1, "inflight", 3);
  });
  sim.RunUntil(100);

  const char* kGolden =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"args\":{\"name\":\"client 0\"},\"name\":\"process_name\","
      "\"ph\":\"M\",\"pid\":1,\"tid\":1},"
      "{\"args\":{\"trace_id\":\"0x100000007\"},\"cat\":\"client\","
      "\"name\":\"read\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":10},"
      "{\"args\":{\"trace_id\":\"0x100000007\",\"value\":1},"
      "\"cat\":\"client\",\"name\":\"read\",\"ph\":\"E\",\"pid\":1,"
      "\"tid\":1,\"ts\":25},"
      "{\"args\":{},\"cat\":\"client\",\"name\":\"note\",\"ph\":\"i\","
      "\"pid\":1,\"s\":\"t\",\"tid\":1,\"ts\":25},"
      "{\"args\":{\"value\":3},\"cat\":\"client\",\"name\":\"inflight\","
      "\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":25}]}";
  EXPECT_EQ(ChromeTraceJson(sink).Dump(), kGolden);
}

TEST(TraceExport, RingDropsOldestAndCountsThem) {
  Simulator sim(1);
  TraceSink sink(&sim, TraceSink::Options{4, false});
  for (int i = 0; i < 10; ++i) {
    sink.Instant(TraceRole::kSim, 0, "tick", kNoTrace, i);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total_emitted(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first unwrap: the surviving events are 6, 7, 8, 9.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].value, static_cast<int64_t>(6 + i));
  }
}

// ---------------------------------------------------------------------------
// Query layer (the sdrtrace CLI's engine)
// ---------------------------------------------------------------------------

TEST(TraceQueryTest, FollowRoundTripsThroughTheBinaryFormat) {
  bool excluded = false;
  TraceData live = RunLyingCluster(101, &excluded);
  ASSERT_TRUE(excluded);

  auto decoded = DecodeTrace(EncodeTrace(live));
  ASSERT_TRUE(decoded.ok());

  TraceQuery live_query(live);
  TraceQuery file_query(*decoded);
  auto verdicts = live_query.Verdicts();
  ASSERT_FALSE(verdicts.empty());
  TraceId id = verdicts.front().id;
  ASSERT_NE(id, kNoTrace);

  // --follow on the decoded file reproduces the live chain exactly.
  EXPECT_EQ(file_query.FormatChain(id), live_query.FormatChain(id));
  EXPECT_FALSE(live_query.FormatChain(id).empty());
  EXPECT_EQ(file_query.FormatVerdicts(), live_query.FormatVerdicts());
  EXPECT_EQ(file_query.FormatSlowest(5), live_query.FormatSlowest(5));
}

TEST(TraceQueryTest, SlowestReadsAreSortedAndComplete) {
  bool excluded = false;
  TraceData data = RunLyingCluster(101, &excluded);
  TraceQuery query(data);
  auto slowest = query.SlowestReads(10);
  ASSERT_FALSE(slowest.empty());
  for (size_t i = 1; i < slowest.size(); ++i) {
    EXPECT_GE(slowest[i - 1].duration, slowest[i].duration);
  }
  for (const auto& r : slowest) {
    EXPECT_NE(r.id, kNoTrace);
    EXPECT_GE(r.duration, 0);
  }
}

TEST(TraceQueryTest, ParseTraceIdFormats) {
  TraceId id = kNoTrace;
  EXPECT_TRUE(ParseTraceId("42", &id));
  EXPECT_EQ(id, 42u);
  EXPECT_TRUE(ParseTraceId("0x900000002", &id));
  EXPECT_EQ(id, 0x900000002ull);
  EXPECT_FALSE(ParseTraceId("", &id));
  EXPECT_FALSE(ParseTraceId("nonsense", &id));
}

// ---------------------------------------------------------------------------
// Determinism gate
// ---------------------------------------------------------------------------

TEST(TraceDeterminism, SameSeedRunsExportByteIdenticalTraces) {
  // The repo-wide determinism contract extended to observability: two
  // same-seed runs must produce byte-identical binary traces and Chrome
  // JSON. Any unordered-container iteration or ambient-time leak in the
  // trace path shows up here.
  bool excluded_a = false, excluded_b = false;
  TraceData a = RunLyingCluster(77, &excluded_a);
  TraceData b = RunLyingCluster(77, &excluded_b);
  EXPECT_EQ(excluded_a, excluded_b);
  EXPECT_EQ(EncodeTrace(a), EncodeTrace(b));
  EXPECT_EQ(ChromeTraceJson(a).Dump(), ChromeTraceJson(b).Dump());
}

TEST(TraceDeterminism, ChaosScenarioTracesAreByteIdenticalToo) {
  // Fault injection runs through the same deterministic machinery; chaos
  // instants land at scheduled virtual times, so the gate holds under
  // partitions and crashes as well.
  auto run = [] {
    ClusterConfig config = LyingClusterConfig(31);
    auto parsed = ParseScenario(
        "at 2s partition slave:1 master:*; at 4s heal all");
    EXPECT_TRUE(parsed.ok());
    Cluster cluster(config);
    ChaosController controller(&cluster, parsed.value(), {},
                               ChaosControllerOptions{250 * kMillisecond});
    controller.Install();
    cluster.RunFor(6 * kSecond);
    controller.Finish();
    return EncodeTrace(*cluster.trace());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sdr
