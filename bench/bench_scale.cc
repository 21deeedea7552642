// E13 — Scale-out: keyspace sharding, group commit, and a million-client
// fleet (src/core/shard.h, src/workload/fleet.h; beyond the paper).
//
// Claims:
//   - each shard owns an independent master group, slave set and version
//     sequence, so both read service capacity and E7's per-group write
//     cap (one commit per max_latency) multiply by the shard count: on a
//     saturating write-heavy workload, events/sec at 4 shards >= 2x the
//     single-group figure;
//   - master-side group commit amortizes the commit-path signing: every
//     commit costs one head token + one batch certificate, whatever the
//     slave count, so at --commit_batch=8 the per-write signature cost
//     drops >= 4x from batch 1's two while commits stay spaced
//     >= max_latency apart (the paper's inconsistency-window bound is
//     untouched);
//   - the fleet node keeps 8 bytes of generator state per simulated
//     client, so a 10^6-client open-loop workload runs in one process.
//
// Events/sec counts client-observed accepted reads plus writes committed
// by the replicated masters (one count per shard, not per replica):
// under E7-style write overload most fleet write RPCs time out before
// their commit slot arrives, so the master-side count is the honest
// measure of replicated write throughput.
//
//   --json BENCH_SCALE.json   mirrors every table into CI's artifact.
#include "bench/bench_util.h"
#include "src/core/cluster.h"

namespace sdr {
namespace {

struct Sample {
  double events_per_sec = 0;
  double reads_per_sec = 0;
  double writes_per_sec = 0;  // committed, unique per shard
  double read_p50_ms = 0;
  double read_p99_ms = 0;
  double sigs_per_write = 0;
  uint64_t batches = 0;
};

struct Shape {
  int shards = 1;
  int fleet_clients = 0;
  uint32_t commit_batch = 1;
  double rps = 0.2;             // per simulated client
  double write_fraction = 0.5;  // E7-shaped: write-heavy
  SimTime duration = 10 * kSecond;
};

Sample Run(const Shape& shape, uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.num_shards = shape.shards;
  config.num_masters = 1;
  config.slaves_per_master = 4;
  config.num_clients = 1;  // the fleet carries the load
  config.fleet_clients = shape.fleet_clients;
  config.fleet_reads_per_second = shape.rps;
  config.fleet_write_fraction = shape.write_fraction;
  config.corpus.n_items = 800;
  config.params.scheme = SignatureScheme::kNull;
  config.params.max_latency = 500 * kMillisecond;
  config.params.keepalive_period = 250 * kMillisecond;
  config.params.double_check_probability = 0.0;
  config.params.audit_enabled = false;  // measure serving, not auditing
  config.params.commit_batch = shape.commit_batch;
  config.params.commit_window = 50 * kMillisecond;
  config.client_mode = Client::LoadMode::kManual;  // client 0 idles
  config.track_ground_truth = false;
  Cluster cluster(config);
  cluster.RunFor(shape.duration);

  const double secs = static_cast<double>(shape.duration) / kSecond;
  const ClientFleet::Metrics& fm = cluster.fleet()->metrics();
  auto totals = cluster.ComputeTotals();

  Sample s;
  // One master per shard here, so per-master commits are per-shard unique.
  uint64_t writes = totals.masters.writes_committed;
  s.reads_per_sec = static_cast<double>(fm.reads_accepted) / secs;
  s.writes_per_sec = static_cast<double>(writes) / secs;
  s.events_per_sec = s.reads_per_sec + s.writes_per_sec;
  s.read_p50_ms = fm.read_rtt_us.Median() / 1000.0;
  s.read_p99_ms = fm.read_rtt_us.P99() / 1000.0;
  s.sigs_per_write =
      writes == 0 ? 0.0
                  : static_cast<double>(totals.masters.commit_signatures) /
                        static_cast<double>(writes);
  s.batches = totals.masters.batches_committed;
  return s;
}

}  // namespace
}  // namespace sdr

int main(int argc, char** argv) {
  sdr::ParseBenchFlags(argc, argv);
  using namespace sdr;
  // CI runs with --small; the full sweep reaches 10^6 simulated clients.
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--small") {
      small = true;
    }
  }
  const int kLoadClients = small ? 120000 : 240000;
  const SimTime kDuration = small ? 5 * kSecond : 10 * kSecond;

  PrintHeader("E13: events/sec vs shard count (write-heavy, saturating)");
  Note("fleet open-loop load saturates one group's slaves and write cap;");
  Note("each shard adds an independent group, so capacity multiplies");
  Row("%-8s %10s %12s %12s %12s %10s %10s", "shards", "clients", "events/s",
      "reads/s", "writes/s", "p50 ms", "p99 ms");
  double base_events = 0, four_shard_events = 0;
  for (int shards : {1, 2, 4}) {
    Shape shape;
    shape.shards = shards;
    shape.fleet_clients = kLoadClients;
    shape.duration = kDuration;
    Sample s = Run(shape, 29);
    if (shards == 1) {
      base_events = s.events_per_sec;
    }
    if (shards == 4) {
      four_shard_events = s.events_per_sec;
    }
    Row("%-8d %10d %12.0f %12.0f %12.1f %10.1f %10.1f", shards,
        shape.fleet_clients, s.events_per_sec, s.reads_per_sec,
        s.writes_per_sec, s.read_p50_ms, s.read_p99_ms);
    ReportBenchmark("e13_shards/" + std::to_string(shards), 1,
                    s.events_per_sec, s.events_per_sec, "events_per_second",
                    {{"reads_per_sec", s.reads_per_sec},
                     {"writes_per_sec", s.writes_per_sec},
                     {"read_p50_ms", s.read_p50_ms},
                     {"read_p99_ms", s.read_p99_ms}});
  }
  Row("%-8s %10s %12.2f", "speedup", "4v1",
      base_events == 0 ? 0.0 : four_shard_events / base_events);

  PrintHeader("E13b: commit signing vs bundle size (single group)");
  Note("signature cost = commit-path signatures / committed writes;");
  Note("each commit signs one head token + one batch certificate");
  Row("%-8s %12s %14s %12s %12s", "batch", "writes/s", "sigs/write",
      "batches", "p50 ms");
  double base_sigs = 0, batched_sigs = 0;
  for (uint32_t batch : {1u, 2u, 4u, 8u}) {
    Shape shape;
    shape.fleet_clients = small ? 20000 : 40000;  // reads under capacity
    shape.commit_batch = batch;
    shape.duration = kDuration;
    Sample s = Run(shape, 31);
    if (batch == 1) {
      base_sigs = s.sigs_per_write;
    }
    if (batch == 8) {
      batched_sigs = s.sigs_per_write;
    }
    Row("%-8u %12.1f %14.2f %12llu %12.1f", batch, s.writes_per_sec,
        s.sigs_per_write, (unsigned long long)s.batches, s.read_p50_ms);
    ReportBenchmark("e13_commit_batch/" + std::to_string(batch), 1,
                    s.sigs_per_write, s.sigs_per_write, "sigs_per_write",
                    {{"writes_per_sec", s.writes_per_sec},
                     {"batches", static_cast<double>(s.batches)}});
  }
  Row("%-8s %12s %14.2f", "sig-cut", "8v1",
      batched_sigs == 0 ? 0.0 : base_sigs / batched_sigs);

  PrintHeader("E13c: the million-client fleet (4 shards, batch 8)");
  Note("8 bytes of generator state per client; arrivals are one Poisson");
  Note("superposition, so memory and host time scale with rate, not count");
  Row("%-10s %10s %12s %12s %10s %10s", "clients", "shards", "events/s",
      "reads/s", "p50 ms", "p99 ms");
  for (int clients : small ? std::vector<int>{100000}
                           : std::vector<int>{100000, 1000000}) {
    Shape shape;
    shape.shards = 4;
    shape.fleet_clients = clients;
    shape.commit_batch = 8;
    shape.rps = small ? 0.05 : 24000.0 / clients;  // fixed aggregate rate
    shape.duration = kDuration;
    Sample s = Run(shape, 37);
    Row("%-10d %10d %12.0f %12.0f %10.1f %10.1f", clients, shape.shards,
        s.events_per_sec, s.reads_per_sec, s.read_p50_ms, s.read_p99_ms);
    ReportBenchmark("e13_fleet/" + std::to_string(clients), 1,
                    s.events_per_sec, s.events_per_sec, "events_per_second",
                    {{"read_p50_ms", s.read_p50_ms},
                     {"read_p99_ms", s.read_p99_ms}});
  }
  Note("shape: events/sec doubles+ by 4 shards; sigs/write falls ~batch-");
  Note("fold; a 10^6-client sweep fits one process at a fixed event rate.");
  return 0;
}
