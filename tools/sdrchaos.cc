// sdrchaos — sweep one chaos scenario across many seeds and report, per
// invariant, which seeds passed and the first violating (seed, virtual
// time, evidence) triple.
//
// Examples (one line each; wrap with shell quoting as needed):
//   # a slave starts lying mid-run, then gets partitioned from the masters
//   ./build/tools/sdrchaos --seeds=20
//     --scenario="at 10s set_behavior slave:2 lie_probability=0.2;
//                 at 40s partition slave:2 master:*; at 60s heal all"
//
//   # crash a master and watch availability / exclusion invariants
//   ./build/tools/sdrchaos --seeds=10 --seconds=120
//     --scenario="at 15s crash master:0; at 45s restart master:0"
#include <cstdio>

#include "src/chaos/runner.h"
#include "src/util/flags.h"

using namespace sdr;

int main(int argc, char** argv) {
  Flags flags;
  flags.Define("scenario", "", "chaos scenario text (see docs/CHAOS.md)")
      .Define("seeds", "20", "number of seeds to sweep")
      .Define("first_seed", "1", "first seed of the sweep")
      .Define("seconds", "90", "virtual seconds per seed")
      .Define("cadence_ms", "250", "invariant-checking cadence")
      .Define("masters", "2", "number of serving masters")
      .Define("auditors", "1", "number of auditors")
      .Define("slaves_per_master", "2", "slaves per master")
      .Define("clients", "4", "number of clients")
      .Define("shards", "1",
              "keyspace shards (each with its own master group; 1 = the "
              "paper's single group)")
      .Define("commit_batch", "1",
              "master-side group commit bundle size (1 = the paper's "
              "one-write-per-commit path)")
      .Define("items", "200", "catalogue size (documents = 3x)")
      .Define("max_latency_ms", "2000", "freshness bound / write spacing")
      .Define("double_check_p", "0.05", "double-check probability")
      .Define("write_fraction", "0.02", "fraction of client ops that write")
      .Define("think_ms", "100", "client think time (closed loop)")
      .Define("scheme", "hmac", "ed25519 | hmac | null")
      .Define("link_ms", "5", "one-way link latency")
      .Define("availability_floor", "0.5",
              "minimum accepted reads/sec outside partitions")
      .Define("jobs", "1", "worker threads for the sweep (report bytes are "
              "identical for any value)")
      .Define("audit_jobs", "1",
              "host worker lanes inside each auditor's re-execution engine "
              "(report bytes are identical for any value)")
      .Define("fork_check", "false",
              "enable the fork-consistency subsystem and its invariants "
              "(NoForkUndetected, EvidenceTransferable)")
      .Define("vv_gossip_ms", "1000",
              "client version-vector gossip period (with --fork_check)")
      .Define("vv_fanout", "2",
              "gossip targets per round (with --fork_check)")
      .Define("fail_on_violation", "false",
              "exit nonzero when any invariant fails");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  auto parsed = ParseScenario(flags.GetString("scenario"));
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad --scenario: %s\n",
                 parsed.error().message().c_str());
    return 1;
  }
  Scenario scenario = std::move(parsed).value();

  ClusterConfig config;
  config.num_masters = static_cast<int>(flags.GetInt("masters"));
  config.num_auditors = static_cast<int>(flags.GetInt("auditors"));
  config.slaves_per_master =
      static_cast<int>(flags.GetInt("slaves_per_master"));
  config.num_clients = static_cast<int>(flags.GetInt("clients"));
  config.num_shards = static_cast<int>(flags.GetInt("shards"));
  config.params.commit_batch =
      static_cast<uint32_t>(flags.GetInt("commit_batch"));
  config.corpus.n_items = static_cast<size_t>(flags.GetInt("items"));
  config.params.max_latency = flags.GetInt("max_latency_ms") * kMillisecond;
  config.params.double_check_probability = flags.GetDouble("double_check_p");
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = flags.GetInt("think_ms") * kMillisecond;
  config.client_write_fraction = flags.GetDouble("write_fraction");
  config.default_link =
      LinkModel{flags.GetInt("link_ms") * kMillisecond,
                flags.GetInt("link_ms") * kMillisecond / 2, 0.0};
  config.audit_jobs = static_cast<int>(flags.GetInt("audit_jobs"));
  config.params.fork_check_enabled = flags.GetBool("fork_check");
  config.params.vv_gossip_period = flags.GetInt("vv_gossip_ms") * kMillisecond;
  config.params.vv_gossip_fanout =
      static_cast<uint32_t>(flags.GetInt("vv_fanout"));

  std::string scheme = flags.GetString("scheme");
  if (scheme == "hmac") {
    config.params.scheme = SignatureScheme::kHmacSha256;
  } else if (scheme == "null") {
    config.params.scheme = SignatureScheme::kNull;
  } else if (scheme == "ed25519") {
    config.params.scheme = SignatureScheme::kEd25519;
  } else {
    std::fprintf(stderr, "unknown --scheme: %s\n", scheme.c_str());
    return 1;
  }

  SweepOptions sweep;
  sweep.first_seed = static_cast<uint64_t>(flags.GetInt("first_seed"));
  sweep.num_seeds = static_cast<int>(flags.GetInt("seeds"));
  sweep.duration = flags.GetInt("seconds") * kSecond;
  sweep.cadence = flags.GetInt("cadence_ms") * kMillisecond;
  sweep.jobs = static_cast<int>(flags.GetInt("jobs"));

  double floor = flags.GetDouble("availability_floor");
  CheckerFactory factory = [floor](const ClusterConfig& cfg) {
    auto checkers = DefaultCheckers(cfg);
    for (auto& checker : checkers) {
      if (checker->name() == "AvailabilityFloor") {
        checker = std::make_unique<AvailabilityFloor>(
            floor, /*warmup=*/5 * kSecond, /*min_window=*/10 * kSecond);
      }
    }
    return checkers;
  };

  std::printf("sdrchaos: %d masters, %d auditors, %d slaves, %d clients, "
              "scheme=%s, %d seeds x %lld virtual seconds\n",
              config.num_masters, config.num_auditors,
              config.num_masters * config.slaves_per_master,
              config.num_clients, scheme.c_str(), sweep.num_seeds,
              static_cast<long long>(flags.GetInt("seconds")));
  for (const auto& [name, value] : flags.NonDefault()) {
    if (name == "jobs" || name == "audit_jobs") {
      continue;  // host-parallelism knobs must not change output bytes
    }
    std::printf("  --%s=%s\n", name.c_str(), value.c_str());
  }
  if (scenario.empty()) {
    std::printf("scenario: (none — honest baseline)\n");
  } else {
    std::printf("scenario: %s\n", scenario.ToString().c_str());
  }

  SweepReport report = RunSeedSweep(config, scenario, sweep, factory);
  std::printf("\n%s", report.Summary().c_str());
  std::printf("verdict: %s\n", report.all_passed() ? "ALL INVARIANTS HELD"
                                                   : "VIOLATIONS FOUND");
  if (flags.GetBool("fail_on_violation") && !report.all_passed()) {
    return 2;
  }
  return 0;
}
