// Quickstart: bring up a complete replicated deployment — directory, two
// trusted masters, an elected auditor, four marginally-trusted slaves and
// a handful of clients — then write to the content through a master and
// read it back through a slave with full pledge verification.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "src/core/cluster.h"

using namespace sdr;

int main() {
  // Configure the deployment. Everything runs on a deterministic
  // discrete-event simulator, so this program produces the same output on
  // every run.
  ClusterConfig config;
  config.seed = 2003;            // HotOS IX
  config.num_masters = 2;        // trusted, owner-controlled
  config.slaves_per_master = 2;  // marginally trusted content servers
  config.num_clients = 3;
  config.corpus.n_items = 100;   // a small product catalogue
  config.params.max_latency = 2 * kSecond;         // freshness bound
  config.params.double_check_probability = 0.05;   // Section 3.3
  config.client_mode = Client::LoadMode::kManual;  // we drive ops below

  Cluster cluster(config);
  std::printf("cluster up: %d masters + auditor, %d slaves, %d clients\n",
              cluster.num_masters(), cluster.num_slaves(),
              cluster.num_clients());

  // Let the setup phase complete: every client contacts the directory,
  // verifies master certificates against the content key, and is assigned
  // a slave (whose certificate chains to its master).
  cluster.RunFor(2 * kSecond);
  for (int c = 0; c < cluster.num_clients(); ++c) {
    std::printf("client %d: master=node%u slave=node%u\n", c,
                cluster.client(c).master(),
                cluster.client(c).read_set().front().cert.subject);
  }

  // A write: sent to the client's master, totally ordered across the
  // master set, committed, then lazily pushed to the slaves.
  cluster.client(0).IssueWrite(
      {WriteOp::Put("item/00042", "limited edition espresso machine"),
       WriteOp::Put("price/00042", "64900")},
      [](bool ok, uint64_t version) {
        std::printf("write %s at content_version %llu\n",
                    ok ? "committed" : "rejected",
                    static_cast<unsigned long long>(version));
      });
  cluster.RunFor(3 * kSecond);

  // A cheap point read and an expensive aggregate, both answered by the
  // untrusted slave with a signed pledge the client verifies (hash,
  // signatures, freshness) before accepting.
  cluster.client(1).IssueRead(
      Query::Get("item/00042"), [](bool ok, const QueryResult& result) {
        std::printf("GET item/00042 -> %s: \"%s\"\n",
                    ok ? "accepted" : "failed",
                    ok && !result.rows.empty() ? result.rows[0].second.c_str()
                                               : "");
      });
  auto sum_query = Query::Parse("SUM price/ price0");
  cluster.client(2).IssueRead(
      *sum_query, [](bool ok, const QueryResult& result) {
        std::printf("SUM price/* -> %s: %lld cents across the catalogue\n",
                    ok ? "accepted" : "failed",
                    static_cast<long long>(result.scalar));
      });
  cluster.RunFor(3 * kSecond);

  // What happened under the hood:
  auto totals = cluster.ComputeTotals();
  std::printf(
      "\nprotocol activity: %llu reads accepted, %llu pledges sent to the "
      "auditor, %llu double-checks, %llu writes committed\n",
      static_cast<unsigned long long>(totals.clients.reads_accepted),
      static_cast<unsigned long long>(totals.clients.pledges_forwarded),
      static_cast<unsigned long long>(totals.clients.double_checks_sent),
      static_cast<unsigned long long>(totals.clients.writes_committed));
  std::printf("auditor: %llu pledges received, %llu audited, 0 mismatches\n",
              static_cast<unsigned long long>(
                  cluster.auditor().metrics().pledges_received),
              static_cast<unsigned long long>(
                  cluster.auditor().metrics().pledges_audited));
  std::printf("ground truth: %llu accepted reads checked, %llu wrong\n",
              static_cast<unsigned long long>(cluster.accepted_checked()),
              static_cast<unsigned long long>(cluster.accepted_wrong()));
  return 0;
}
