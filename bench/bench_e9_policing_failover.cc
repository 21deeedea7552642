// E9 — Greedy-client policing and master-crash recovery
// (paper Sections 3 and 3.3).
//
// Part A: "by keeping track on the number of double-check requests it
// receives from each of its clients, a master can identify statistically
// anomalous client behavior ... The master can then enforce fair play by
// simply ignoring a large fraction of the double-check requests coming
// from clients suspected to be greedy." We measure the master's
// double-check service load with policing off vs on, and the collateral
// damage to honest clients.
//
// Part B: "in the event of a master crash, the remaining ones will divide
// its slave set ... all the clients connected to the crashed server will
// have to go through the setup process again." We measure the service
// interruption window and the recovered read rate.
#include "bench/bench_util.h"
#include "src/core/cluster.h"

namespace sdr {
namespace {

void PartA() {
  PrintHeader("E9a: greedy-client policing (Section 3.3)");
  Row("%-10s %12s %14s %16s %18s", "policing", "dcServed", "dcThrottled",
      "greedyUnserved", "honestUnserved");
  for (bool policing : {false, true}) {
    ClusterConfig config;
    config.seed = 29;
    config.num_masters = 1;
    config.slaves_per_master = 2;
    config.num_clients = 4;
    config.corpus.n_items = 50;
    config.params.scheme = SignatureScheme::kHmacSha256;
    config.params.double_check_probability = 0.02;
    config.params.greedy_policing_enabled = policing;
    config.params.greedy_refill_per_second = 0.5;
    config.params.greedy_burst = 10.0;
    config.params.audit_enabled = false;
    config.client_mode = Client::LoadMode::kClosedLoop;
    config.client_think_time = 25 * kMillisecond;
    config.track_ground_truth = false;
    config.tweak_client = [](int index, Client::Options& opts) {
      if (index == 0) {
        opts.greedy = true;  // double-checks 100% of reads
      }
    };
    Cluster cluster(config);
    cluster.RunFor(120 * kSecond);

    uint64_t honest_unserved = 0;
    for (int c = 1; c < cluster.num_clients(); ++c) {
      honest_unserved += cluster.client(c).metrics().double_checks_unserved;
    }
    Row("%-10s %12llu %14llu %16llu %18llu", policing ? "on" : "off",
        static_cast<unsigned long long>(
            cluster.master(0).metrics().double_checks_served),
        static_cast<unsigned long long>(
            cluster.master(0).metrics().double_checks_throttled),
        static_cast<unsigned long long>(
            cluster.client(0).metrics().double_checks_unserved),
        static_cast<unsigned long long>(honest_unserved));
  }
  Note("shape: policing slashes the master's double-check load to roughly");
  Note("the honest budget; the greedy client absorbs nearly all refusals.");
}

void PartB() {
  PrintHeader("E9b: master crash -> slave-set division + client re-setup");
  ClusterConfig config;
  config.seed = 30;
  config.num_masters = 3;
  config.slaves_per_master = 2;
  config.num_clients = 9;
  config.corpus.n_items = 50;
  config.params.scheme = SignatureScheme::kHmacSha256;
  // Clients must touch their master now and then to notice it died (reads
  // alone keep working off adopted slaves' fresh tokens).
  config.params.double_check_probability = 0.05;
  config.params.audit_enabled = false;
  config.params.gossip_period = 500 * kMillisecond;
  config.params.master_failure_timeout = 3 * kSecond;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 100 * kMillisecond;
  config.track_ground_truth = false;
  Cluster cluster(config);

  cluster.RunFor(15 * kSecond);
  uint64_t accepted_before = cluster.ComputeTotals().clients.reads_accepted;
  int victims = 0;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    if (cluster.client(c).master() == cluster.master(1).id()) {
      ++victims;
    }
  }
  Row("  t=15s: crash master %u (%d clients attached, %zu slaves)",
      cluster.master(1).id(), victims,
      cluster.master(1).my_slave_ids().size());
  cluster.net().SetNodeUp(cluster.master(1).id(), false);

  // Sample read progress each second to find the interruption window.
  SimTime adopted_at = -1, resumed_at = -1;
  uint64_t last = accepted_before;
  for (int sec = 0; sec < 45; ++sec) {
    cluster.RunFor(1 * kSecond);
    auto t = cluster.ComputeTotals();
    if (adopted_at < 0 && (cluster.master(0).metrics().slave_sets_adopted +
                           cluster.master(2).metrics().slave_sets_adopted) >
                              0) {
      adopted_at = cluster.sim().Now();
    }
    bool victims_recovered = true;
    for (int c = 0; c < cluster.num_clients(); ++c) {
      if (cluster.client(c).master() == cluster.master(1).id()) {
        victims_recovered = false;
      }
    }
    if (resumed_at < 0 && victims_recovered &&
        t.clients.reads_accepted > last + 5) {
      resumed_at = cluster.sim().Now();
    }
    last = t.clients.reads_accepted;
  }
  Row("  slave set divided after %.1f s (survivors adopted %llu sets)",
      adopted_at < 0 ? -1.0 : (static_cast<double>(adopted_at) / kSecond - 15),
      static_cast<unsigned long long>(
          cluster.master(0).metrics().slave_sets_adopted +
          cluster.master(2).metrics().slave_sets_adopted));
  Row("  all victim clients re-setup and reading by %.1f s after crash",
      resumed_at < 0 ? -1.0 : (static_cast<double>(resumed_at) / kSecond - 15));
  uint64_t setups = 0;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    setups += cluster.client(c).metrics().setups_completed;
  }
  Row("  total setups completed: %llu (initial 9 + re-setups)",
      static_cast<unsigned long long>(setups));
  auto t = cluster.ComputeTotals();
  Row("  reads accepted: %llu before crash, %llu total after 45s more",
      static_cast<unsigned long long>(accepted_before),
      static_cast<unsigned long long>(t.clients.reads_accepted));
  Note("shape: division happens one failure-timeout after the crash; the");
  Note("interruption is bounded by client timeouts + re-setup RTTs.");
}

}  // namespace
}  // namespace sdr

int main(int argc, char** argv) {
  sdr::ParseBenchFlags(argc, argv);
  sdr::PartA();
  sdr::PartB();
  return 0;
}
