// E8 — The multi-slave read variant (paper Section 4).
//
// Claims:
//   - sending each read to k slaves forces malicious slaves to *collude*:
//     any disagreement triggers a mandatory double-check, so when every
//     queried slave answers in time a wrong answer passes only if all of
//     them lie identically (here honest slaves always answer in time);
//   - the cost is k-fold execution on untrusted resources ("more computing
//     resources are needed ... but these resources need not be trusted").
//
// Sweep k and the number of (identically-)colluding slaves; measure the
// wrong-answer acceptance rate, double-check traffic, and slave work. One
// more row gives each of two masters its own k slaves and makes the whole
// read set the client first gets collude: once they are excluded the set
// is empty, and the client must set up again (with the other master)
// rather than time reads out.
// Exits 1 if any row with fewer colluders than k accepts a wrong answer or
// excludes a number of slaves other than its colluders, if any row counts
// an accusation as unfounded (no row has a framing peer), or if any read
// times out after the row's last exclusion.
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/cluster.h"

namespace sdr {
namespace {

struct Sample {
  uint64_t accepted = 0;
  uint64_t wrong = 0;
  uint64_t disagreements = 0;
  uint64_t double_checks = 0;
  uint64_t slave_work = 0;
  uint64_t excluded = 0;
  uint64_t repeat = 0;     // accusations re-proving an excluded slave
  uint64_t unfounded = 0;  // accusations that proved nothing
  uint64_t late_timeouts = 0;  // reads timed out after the last exclusion
};

uint64_t Excluded(Cluster& cluster) {
  uint64_t n = 0;
  for (int m = 0; m < cluster.num_masters(); ++m) {
    n += cluster.master(m).metrics().slaves_excluded;
  }
  return n;
}

// The colluders are the first `colluders` members of the read set the
// client gets at setup (with one master, the slaves of lowest id).
Sample Run(int k, int colluders, int masters, uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.num_masters = masters;
  config.slaves_per_master = k;
  config.num_clients = 1;  // manual mode: the loop below issues the reads
  config.corpus.n_items = 100;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.double_check_probability = 0.02;
  config.params.read_fanout = static_cast<uint32_t>(k);
  Cluster cluster(config);
  Client& client = cluster.client(0);

  cluster.RunFor(2 * kSecond);  // setup; keep-alives arm the slaves

  // Colluders lie deterministically on every read, so their (wrong)
  // answers match each other exactly.
  const std::vector<AssignedSlave>& set = client.read_set();
  for (int c = 0; c < colluders && c < static_cast<int>(set.size()); ++c) {
    for (int i = 0; i < cluster.num_slaves(); ++i) {
      if (cluster.slave(i).id() == set[c].cert.subject) {
        Slave::Behavior b;
        b.lie_probability = 1.0;
        cluster.slave(i).SetBehavior(b);
      }
    }
  }

  QueryMix mix;
  mix.n_items = config.corpus.n_items;
  Rng qrng(seed * 13 + 1);
  std::function<void()> loop = [&] {
    client.IssueRead(mix.Generate(qrng),
                     [&](bool, const QueryResult&) {
                       cluster.sim().ScheduleAfter(50 * kMillisecond, loop);
                     });
  };
  loop();
  // Reads timed out by the time the last colluder is excluded.
  std::optional<uint64_t> timed_out_by_last_exclusion;
  std::function<void()> probe = [&] {
    if (Excluded(cluster) >= static_cast<uint64_t>(colluders)) {
      timed_out_by_last_exclusion = client.metrics().reads_timed_out;
      return;
    }
    cluster.sim().ScheduleAfter(10 * kMillisecond, probe);
  };
  probe();
  cluster.RunFor(120 * kSecond);

  Sample s;
  s.accepted = client.metrics().reads_accepted;
  s.wrong = cluster.accepted_wrong();
  s.disagreements = client.metrics().fanout_disagreements;
  s.double_checks = client.metrics().double_checks_sent;
  for (int i = 0; i < cluster.num_slaves(); ++i) {
    s.slave_work += cluster.slave(i).metrics().work_units_executed;
  }
  s.excluded = Excluded(cluster);
  for (int m = 0; m < cluster.num_masters(); ++m) {
    s.repeat += cluster.master(m).metrics().accusations_repeat;
    s.unfounded += cluster.master(m).metrics().accusations_unfounded;
  }
  s.late_timeouts = client.metrics().reads_timed_out -
                    timed_out_by_last_exclusion.value_or(0);
  return s;
}

}  // namespace
}  // namespace sdr

int main(int argc, char** argv) {
  sdr::ParseBenchFlags(argc, argv);
  using namespace sdr;
  PrintHeader("E8: multi-slave reads force collusion (Section 4)");
  Note("every read fans out to the client's read set of k slaves");
  Note("(read_fanout=k); colluders lie identically on every answer;");
  Note("p(double-check)=0.02 on agreeing answers");
  Row("%-4s %-10s %-8s %9s %7s %10s %8s %10s %9s %7s %10s %7s", "k",
      "colluders", "masters", "accepted", "wrong", "disagree", "dchecks",
      "slaveWork", "excluded", "repeat", "unfounded", "lateTO");
  struct Cell {
    int k;
    int colluders;
    int masters;
  };
  int violations = 0;
  auto violation = [&violations](const Cell& cell, const std::string& what) {
    ++violations;
    Note("VIOLATION: k=" + std::to_string(cell.k) + " colluders=" +
         std::to_string(cell.colluders) + " masters=" +
         std::to_string(cell.masters) + " " + what);
  };
  for (const Cell& cell :
       {Cell{1, 0, 1}, Cell{1, 1, 1}, Cell{2, 1, 1}, Cell{3, 1, 1},
        Cell{3, 2, 1}, Cell{3, 3, 1}, Cell{5, 2, 1}, Cell{5, 4, 1},
        Cell{5, 5, 1}, Cell{2, 2, 2}}) {
    Sample s = Run(cell.k, cell.colluders, cell.masters, 23);
    Row("%-4d %-10d %-8d %9llu %7llu %10llu %8llu %10llu %9llu %7llu %10llu "
        "%7llu",
        cell.k, cell.colluders, cell.masters,
        static_cast<unsigned long long>(s.accepted),
        static_cast<unsigned long long>(s.wrong),
        static_cast<unsigned long long>(s.disagreements),
        static_cast<unsigned long long>(s.double_checks),
        static_cast<unsigned long long>(s.slave_work),
        static_cast<unsigned long long>(s.excluded),
        static_cast<unsigned long long>(s.repeat),
        static_cast<unsigned long long>(s.unfounded),
        static_cast<unsigned long long>(s.late_timeouts));
    // The variant's guarantee: with an honest slave in every read set, no
    // wrong answer is accepted and exactly the colluders are excluded.
    if (cell.colluders < cell.k &&
        (s.wrong != 0 || s.excluded != static_cast<uint64_t>(cell.colluders))) {
      violation(cell, "accepted a wrong answer or excluded other than its "
                      "colluders");
    }
    if (s.unfounded != 0) {
      violation(cell, "counted an accusation as unfounded");
    }
    if (s.late_timeouts != 0) {
      violation(cell, "timed out a read after its last exclusion");
    }
  }
  Note("shape: with any honest slave in the set, disagreement forces a");
  Note("double-check and liars are excluded (wrong=0 unless ALL k collude);");
  Note("slave work grows with the honest members left in the set --");
  Note("cheap untrusted resources. A set that empties sends the client");
  Note("back to setup, so no read times out on excluded slaves.");
  return violations == 0 ? 0 : 1;
}
