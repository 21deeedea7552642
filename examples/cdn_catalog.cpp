// CDN product-catalogue scenario (paper Section 6): the content owner runs
// the trusted masters; a content delivery network supplies the slaves.
// A day of diurnally-shaped shopper traffic (point lookups, searches,
// price aggregations) runs against the replicated catalogue while the
// owner pushes occasional price updates — demonstrating the high
// read/write-ratio regime the architecture targets.
//
//   ./build/examples/cdn_catalog
#include <cstdio>

#include "src/core/cluster.h"

using namespace sdr;

int main() {
  ClusterConfig config;
  config.seed = 77;
  config.num_masters = 2;
  config.slaves_per_master = 3;  // the "CDN edge"
  config.num_clients = 8;        // shoppers
  config.corpus.n_items = 500;
  // Shoppers: mostly product-page lookups, some catalogue searches
  // (regex), a few storefront aggregates.
  config.mix.get_weight = 0.80;
  config.mix.scan_weight = 0.08;
  config.mix.grep_weight = 0.09;
  config.mix.agg_weight = 0.03;
  // HMAC mode keeps a day-long simulation fast on the host; the protocol
  // logic is identical (see DESIGN.md).
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.max_latency = 2 * kSecond;
  config.params.double_check_probability = 0.02;
  // One shopper in ~50 ops is actually the merchant updating prices.
  config.client_mode = Client::LoadMode::kOpenLoop;
  config.client_reads_per_second = 0.8;
  config.client_write_fraction = 0.002;
  DiurnalShape shape;  // 3 AM trough, mid-afternoon peak
  config.client_rate_multiplier = [shape](SimTime t) {
    return shape.Multiplier(t);
  };
  config.track_ground_truth = false;  // day-scale run; checked in tests

  Cluster cluster(config);
  std::printf("CDN catalogue: %zu documents, %d edge slaves, %d shoppers\n",
              config.corpus.n_items * 3, cluster.num_slaves(),
              cluster.num_clients());
  std::printf("%6s %8s %10s %10s %12s %10s\n", "hour", "load", "reads",
              "writes", "auditBacklog", "auditLag");

  DiurnalShape probe;
  uint64_t last_reads = 0;
  for (int hour = 1; hour <= 24; ++hour) {
    cluster.RunFor(1 * kHour);
    auto totals = cluster.ComputeTotals();
    if (hour % 2 == 0) {
      std::printf("%6d %8.2f %10llu %10llu %12zu %10llu\n", hour,
                  probe.Multiplier(cluster.sim().Now()),
                  static_cast<unsigned long long>(
                      totals.clients.reads_accepted - last_reads),
                  static_cast<unsigned long long>(
                      cluster.master(0).metrics().writes_committed),
                  cluster.auditor().backlog(),
                  static_cast<unsigned long long>(
                      cluster.auditor().version_lag()));
    }
    last_reads = totals.clients.reads_accepted;
  }

  auto totals = cluster.ComputeTotals();
  std::printf("\n24h summary:\n");
  std::printf("  reads accepted: %llu   writes committed: %llu  (ratio %.0f:1)\n",
              static_cast<unsigned long long>(totals.clients.reads_accepted),
              static_cast<unsigned long long>(
                  cluster.master(0).metrics().writes_committed),
              static_cast<double>(totals.clients.reads_accepted) /
                  std::max<uint64_t>(1,
                                     cluster.master(0).metrics().writes_committed));
  std::printf("  trusted work: %llu units   untrusted work: %llu units\n",
              static_cast<unsigned long long>(
                  totals.masters.work_units_executed +
                  totals.auditors.work_units_executed),
              static_cast<unsigned long long>(
                  totals.slaves.work_units_executed));
  std::printf("  pledges audited: %llu of %llu received (cache hits %llu)\n",
              static_cast<unsigned long long>(
                  cluster.auditor().metrics().pledges_audited),
              static_cast<unsigned long long>(
                  cluster.auditor().metrics().pledges_received),
              static_cast<unsigned long long>(
                  cluster.auditor().metrics().cache_hits));
  return 0;
}
