// E2 — Double-check probability sweep (paper Section 3.3).
//
// Claim: the double-check probability "should be small enough so it does
// not excessively increase the workload on the masters, but large enough
// so it guarantees that a malicious slave is caught red-handed quickly."
// This bench measures both sides of that trade-off as p sweeps 0 -> 1:
//   - the master's share of total query work (honest run), and
//   - how many reads a slave lying on every answer survives before it is
//     caught by a double-check (malicious run; audit disabled to isolate
//     the mechanism).
#include "bench/bench_util.h"
#include "src/core/cluster.h"

namespace sdr {
namespace {

struct Sample {
  double master_share = 0;
  uint64_t dc_per_100_reads = 0;
  double mean_reads_to_catch = 0;
  double caught_fraction = 0;
};

Sample RunAt(double p, uint64_t seed) {
  Sample s;
  // --- Honest run: master load share. ---
  {
    ClusterConfig config;
    config.seed = seed;
    config.num_masters = 1;
    config.slaves_per_master = 2;
    config.num_clients = 4;
    config.corpus.n_items = 100;
    config.params.scheme = SignatureScheme::kHmacSha256;
    config.params.double_check_probability = p;
    config.params.audit_enabled = false;
    config.client_mode = Client::LoadMode::kClosedLoop;
    config.client_think_time = 50 * kMillisecond;
    config.track_ground_truth = false;
    Cluster cluster(config);
    cluster.RunFor(60 * kSecond);
    auto t = cluster.ComputeTotals();
    const uint64_t master_work = t.masters.work_units_executed;
    uint64_t total = master_work + t.slaves.work_units_executed;
    s.master_share = total == 0 ? 0
                                : static_cast<double>(master_work) /
                                      static_cast<double>(total);
    const uint64_t accepted = t.clients.reads_accepted;
    s.dc_per_100_reads =
        accepted == 0 ? 0 : 100 * t.clients.double_checks_sent / accepted;
  }
  // --- Malicious runs: reads survived by an always-lying slave. ---
  {
    const int kTrials = 10;
    int caught = 0;
    double total_reads = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      ClusterConfig config;
      config.seed = seed * 1000 + static_cast<uint64_t>(trial);
      config.num_masters = 1;
      config.slaves_per_master = 2;
      config.num_clients = 2;
      config.corpus.n_items = 100;
      config.params.scheme = SignatureScheme::kHmacSha256;
      config.params.double_check_probability = p;
      config.params.audit_enabled = false;  // isolate double-checking
      config.client_mode = Client::LoadMode::kClosedLoop;
      config.client_think_time = 20 * kMillisecond;
      config.track_ground_truth = false;
      config.slave_behavior = [](int index) {
        Slave::Behavior b;
        if (index == 0) {
          b.lie_probability = 1.0;
        }
        return b;
      };
      Cluster cluster(config);
      cluster.RunFor(180 * kSecond);
      const SlaveMetrics& liar = cluster.slave(0).metrics();
      if (cluster.master(0).IsExcluded(cluster.slave(0).id())) {
        ++caught;
        total_reads += static_cast<double>(liar.reads_served);
      }
    }
    s.caught_fraction = static_cast<double>(caught) / kTrials;
    s.mean_reads_to_catch = caught == 0 ? 0 : total_reads / caught;
  }
  return s;
}

}  // namespace
}  // namespace sdr

int main(int argc, char** argv) {
  sdr::ParseBenchFlags(argc, argv);
  using namespace sdr;
  PrintHeader("E2: double-check probability trade-off (Section 3.3)");
  Note("honest run: 4 clients/60s; malicious run: always-lying slave,");
  Note("audit disabled, 10 trials x 180s; expectation: reads-to-catch ~ 1/p");

  Row("%-6s %14s %14s %18s %10s", "p", "masterShare", "dc/100reads",
      "readsToCatch", "caught");
  for (double p : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.0}) {
    Sample s = RunAt(p, 7);
    Row("%-6.2f %13.1f%% %14llu %18.1f %9.0f%%", p, 100 * s.master_share,
        static_cast<unsigned long long>(s.dc_per_100_reads),
        s.mean_reads_to_catch, 100 * s.caught_fraction);
  }
  Note("shape: master load grows ~linearly with p; detection speed grows");
  Note("with p (geometric with mean ~1/p reads); p=0 never catches anyone.");
  return 0;
}
