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
// wrong-answer acceptance rate, double-check traffic, and slave work.
// Exits 1 if any row with fewer colluders than k accepts a wrong answer or
// excludes a number of slaves other than its colluders.
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
};

Sample Run(int k, int colluders, uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.num_masters = 1;
  config.slaves_per_master = k;
  config.num_clients = 1;  // manual mode: the loop below issues the reads
  config.corpus.n_items = 100;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.double_check_probability = 0.02;
  config.params.read_fanout = static_cast<uint32_t>(k);
  // Colluders lie deterministically on every read, so their (wrong)
  // answers match each other exactly.
  config.slave_behavior = [colluders](int index) {
    Slave::Behavior b;
    if (index < colluders) {
      b.lie_probability = 1.0;
    }
    return b;
  };
  Cluster cluster(config);
  Client& client = cluster.client(0);

  cluster.RunFor(2 * kSecond);  // setup; keep-alives arm the slaves

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
  cluster.RunFor(120 * kSecond);

  Sample s;
  s.accepted = client.metrics().reads_accepted;
  s.wrong = cluster.accepted_wrong();
  s.disagreements = client.metrics().fanout_disagreements;
  s.double_checks = client.metrics().double_checks_sent;
  for (int i = 0; i < cluster.num_slaves(); ++i) {
    s.slave_work += cluster.slave(i).metrics().work_units_executed;
  }
  s.excluded = cluster.master(0).metrics().slaves_excluded;
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
  Row("%-4s %-10s %9s %7s %10s %8s %10s %9s", "k", "colluders", "accepted",
      "wrong", "disagree", "dchecks", "slaveWork", "excluded");
  struct Cell {
    int k;
    int colluders;
  };
  int violations = 0;
  for (const Cell& cell :
       {Cell{1, 0}, Cell{1, 1}, Cell{2, 1}, Cell{3, 1}, Cell{3, 2},
        Cell{3, 3}, Cell{5, 2}, Cell{5, 4}, Cell{5, 5}}) {
    Sample s = Run(cell.k, cell.colluders, 23);
    Row("%-4d %-10d %9llu %7llu %10llu %8llu %10llu %9llu", cell.k,
        cell.colluders, static_cast<unsigned long long>(s.accepted),
        static_cast<unsigned long long>(s.wrong),
        static_cast<unsigned long long>(s.disagreements),
        static_cast<unsigned long long>(s.double_checks),
        static_cast<unsigned long long>(s.slave_work),
        static_cast<unsigned long long>(s.excluded));
    // The variant's guarantee: with an honest slave in every read set, no
    // wrong answer is accepted and exactly the colluders are excluded.
    if (cell.colluders < cell.k &&
        (s.wrong != 0 || s.excluded != static_cast<uint64_t>(cell.colluders))) {
      ++violations;
      Note("VIOLATION: k=" + std::to_string(cell.k) + " colluders=" +
           std::to_string(cell.colluders) + " accepted a wrong answer or " +
           "excluded other than its colluders");
    }
  }
  Note("shape: with any honest slave in the set, disagreement forces a");
  Note("double-check and liars are excluded (wrong=0 unless ALL k collude);");
  Note("slave work grows with the honest members left in the set --");
  Note("cheap untrusted resources.");
  return violations == 0 ? 0 : 1;
}
