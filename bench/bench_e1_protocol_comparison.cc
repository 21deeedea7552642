// E1 — Protocol comparison: this paper's scheme vs state signing vs state
// machine replication (paper Sections 1 and 5).
//
// Claims reproduced (shape, not absolute numbers):
//   - Our scheme serves arbitrary reads from untrusted slaves with ~1x
//     execution work per read plus a small trusted overhead (double-check
//     fraction p + background audit).
//   - State signing serves only point reads from slaves; every dynamic
//     query runs on a trusted master, so trusted-host load explodes as the
//     dynamic fraction of the mix grows.
//   - SMR executes every read (2f+1)x and its latency tracks the slower
//     quorum members.
//
// All three systems run on identical simulated links, the same catalogue,
// and the same query stream.
#include <memory>

#include "bench/baselines/smr_quorum.h"
#include "bench/baselines/state_signing.h"
#include "bench/bench_util.h"
#include "src/core/cluster.h"

namespace sdr {
namespace {

struct MixSpec {
  const char* name;
  QueryMix mix;
};

// Dynamic fraction = scan + grep + agg weights.
std::vector<MixSpec> Mixes() {
  QueryMix point_heavy;
  point_heavy.get_weight = 0.95;
  point_heavy.scan_weight = 0.00;
  point_heavy.grep_weight = 0.03;
  point_heavy.agg_weight = 0.02;

  QueryMix mixed;
  mixed.get_weight = 0.70;
  mixed.scan_weight = 0.15;
  mixed.grep_weight = 0.10;
  mixed.agg_weight = 0.05;

  QueryMix dynamic_heavy;
  dynamic_heavy.get_weight = 0.30;
  dynamic_heavy.scan_weight = 0.20;
  dynamic_heavy.grep_weight = 0.30;
  dynamic_heavy.agg_weight = 0.20;

  return {{"point-heavy (5% dyn)", point_heavy},
          {"mixed      (30% dyn)", mixed},
          {"dyn-heavy  (70% dyn)", dynamic_heavy}};
}

constexpr SimTime kRunFor = 120 * kSecond;
constexpr SimTime kThink = 50 * kMillisecond;
constexpr size_t kItems = 200;

struct Outcome {
  uint64_t reads = 0;
  double median_ms = 0;
  double p99_ms = 0;
  uint64_t trusted_work = 0;
  uint64_t untrusted_work = 0;
};

Outcome RunOurs(const QueryMix& mix, uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.num_masters = 1;
  config.slaves_per_master = 2;
  config.num_clients = 2;
  config.corpus.n_items = kItems;
  config.mix = mix;
  config.params.scheme = SignatureScheme::kHmacSha256;  // host-CPU relief
  config.params.double_check_probability = 0.05;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = kThink;
  config.track_ground_truth = false;
  Cluster cluster(config);
  cluster.RunFor(kRunFor);

  Outcome o;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    const ClientMetrics& m = cluster.client(c).metrics();
    o.reads += m.reads_accepted;
  }
  // Merge latency samples via quantiles of the first client (same load).
  o.median_ms = cluster.client(0).metrics().read_latency_us.Median() / 1000.0;
  o.p99_ms = cluster.client(0).metrics().read_latency_us.P99() / 1000.0;
  auto totals = cluster.ComputeTotals();
  o.trusted_work = totals.masters.work_units_executed +
                   totals.auditors.work_units_executed;
  o.untrusted_work = totals.slaves.work_units_executed;
  return o;
}

Outcome RunStateSigning(const QueryMix& mix, uint64_t seed) {
  Simulator sim(seed);
  Network net(&sim, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.0});
  Rng rng(seed);
  KeyPair master_key = KeyPair::Generate(SignatureScheme::kHmacSha256, rng);

  SsMaster::Options mo;
  mo.key_pair = master_key;
  mo.params.scheme = SignatureScheme::kHmacSha256;
  auto master = std::make_unique<SsMaster>(mo);
  net.AddNode(master.get());

  SsSlave::Options so;
  auto slave1 = std::make_unique<SsSlave>(so);
  auto slave2 = std::make_unique<SsSlave>(so);
  net.AddNode(slave1.get());
  net.AddNode(slave2.get());
  master->AddSlave(slave1->id());
  master->AddSlave(slave2->id());

  CorpusConfig corpus;
  corpus.n_items = kItems;
  DocumentStore content = BuildCatalogCorpus(corpus, rng);
  master->SetContent(content);
  MerkleTree tree = MerkleTree::Build(content);
  Signer signer(master_key);
  SignedRoot root = MakeSignedRoot(signer, tree.root(), 0, 0);
  slave1->SetContent(content, root);
  slave2->SetContent(content, root);

  SsClient::Options co;
  co.params.scheme = SignatureScheme::kHmacSha256;
  co.master_public_key = master_key.public_key;
  co.master = master->id();
  auto make_client = [&](NodeId slave_id) {
    SsClient::Options opts = co;
    opts.slave = slave_id;
    return std::make_unique<SsClient>(opts);
  };
  auto client1 = make_client(slave1->id());
  auto client2 = make_client(slave2->id());
  net.AddNode(client1.get());
  net.AddNode(client2.get());
  net.StartAll();

  QueryMix m = mix;
  m.n_items = kItems;
  Rng q1(seed * 31 + 1), q2(seed * 31 + 2);
  // Closed loop per client.
  std::function<void(SsClient*, Rng*)> loop = [&](SsClient* c, Rng* r) {
    c->IssueRead(m.Generate(*r), [&loop, c, r, &sim](bool) {
      sim.ScheduleAfter(kThink, [&loop, c, r] { loop(c, r); });
    });
  };
  loop(client1.get(), &q1);
  loop(client2.get(), &q2);
  sim.RunUntil(kRunFor);

  Outcome o;
  o.reads = client1->reads_accepted() + client2->reads_accepted();
  o.median_ms = client1->latency_us().Median() / 1000.0;
  o.p99_ms = client1->latency_us().P99() / 1000.0;
  o.trusted_work = master->work_units_executed();
  o.untrusted_work =
      slave1->work_units_executed() + slave2->work_units_executed();
  return o;
}

Outcome RunSmr(const QueryMix& mix, int f, uint64_t seed) {
  Simulator sim(seed);
  Network net(&sim, LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.0});
  Rng rng(seed);
  CorpusConfig corpus;
  corpus.n_items = kItems;
  DocumentStore content = BuildCatalogCorpus(corpus, rng);

  int n = 2 * f + 1;
  std::vector<std::unique_ptr<QrReplica>> replicas;
  QrClient::Options co;
  co.f = f;
  for (int i = 0; i < n; ++i) {
    replicas.push_back(std::make_unique<QrReplica>(QrReplica::Options{}));
    co.replicas.push_back(net.AddNode(replicas.back().get()));
    replicas.back()->SetContent(content);
  }
  auto client1 = std::make_unique<QrClient>(co);
  auto client2 = std::make_unique<QrClient>(co);
  net.AddNode(client1.get());
  net.AddNode(client2.get());
  net.StartAll();

  QueryMix m = mix;
  m.n_items = kItems;
  Rng q1(seed * 37 + 1), q2(seed * 37 + 2);
  std::function<void(QrClient*, Rng*)> loop = [&](QrClient* c, Rng* r) {
    c->IssueRead(m.Generate(*r), [&loop, c, r, &sim](bool, const QueryResult&) {
      sim.ScheduleAfter(kThink, [&loop, c, r] { loop(c, r); });
    });
  };
  loop(client1.get(), &q1);
  loop(client2.get(), &q2);
  sim.RunUntil(kRunFor);

  Outcome o;
  o.reads = client1->reads_accepted() + client2->reads_accepted();
  o.median_ms = client1->latency_us().Median() / 1000.0;
  o.p99_ms = client1->latency_us().P99() / 1000.0;
  o.trusted_work = 0;
  for (const auto& rep : replicas) {
    o.untrusted_work += rep->work_units_executed();
  }
  return o;
}

}  // namespace
}  // namespace sdr

int main(int argc, char** argv) {
  sdr::ParseBenchFlags(argc, argv);
  using namespace sdr;
  PrintHeader(
      "E1: protocol comparison (ours vs state signing vs SMR quorum)");
  Note("2 clients, 200-item catalogue, 120 virtual seconds, identical links");
  Note("work = query-executor work units; trusted = masters+auditor");

  Row("%-22s %-18s %8s %9s %9s %10s %12s %8s", "mix", "system", "reads",
      "med ms", "p99 ms", "trustedW", "untrustedW", "W/read");
  for (const auto& spec : Mixes()) {
    struct Entry {
      std::string name;
      Outcome o;
    };
    std::vector<Entry> entries;
    entries.push_back({"ours (p=0.05)", RunOurs(spec.mix, 42)});
    entries.push_back({"state-signing", RunStateSigning(spec.mix, 42)});
    entries.push_back({"smr f=1 (3x)", RunSmr(spec.mix, 1, 42)});
    entries.push_back({"smr f=2 (5x)", RunSmr(spec.mix, 2, 42)});
    entries.push_back({"smr f=3 (7x)", RunSmr(spec.mix, 3, 42)});
    for (const auto& e : entries) {
      double per_read =
          e.o.reads == 0
              ? 0
              : static_cast<double>(e.o.trusted_work + e.o.untrusted_work) /
                    static_cast<double>(e.o.reads);
      Row("%-22s %-18s %8llu %9.2f %9.2f %10llu %12llu %8.1f", spec.name,
          e.name.c_str(), static_cast<unsigned long long>(e.o.reads),
          e.o.median_ms, e.o.p99_ms,
          static_cast<unsigned long long>(e.o.trusted_work),
          static_cast<unsigned long long>(e.o.untrusted_work), per_read);
    }
  }
  Note("expected shape: ours keeps trusted work small at every mix;");
  Note("state-signing's trusted work explodes with the dynamic fraction;");
  Note("smr multiplies untrusted work by 2f+1 and pays quorum latency.");
  return 0;
}
