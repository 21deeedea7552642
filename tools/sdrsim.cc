// sdrsim — run a configurable secure-data-replication simulation from the
// command line and print a full metrics report.
//
// Examples:
//   # default honest cluster, 60 virtual seconds
//   ./build/tools/sdrsim
//
//   # a hostile CDN: every third slave lies on 10% of reads
//   ./build/tools/sdrsim --liar_every=3 --lie_probability=0.1 --seconds=120
//
//   # stress the auditor with an expensive mix and no cache
//   ./build/tools/sdrsim --grep_weight=0.4 --auditor_cache=false
#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/chaos/runner.h"
#include "src/core/cluster.h"
#include "src/trace/export.h"
#include "src/util/flags.h"
#include "src/util/json.h"

using namespace sdr;

namespace {

bool WriteFileBytes(const std::string& path, const Bytes& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  size_t n = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (n != data.size()) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

bool WriteFileString(const std::string& path, const std::string& data) {
  return WriteFileBytes(path, Bytes(data.begin(), data.end()));
}

// The highest version any master of shard `shard` has committed.
uint64_t ShardVersion(Cluster& cluster, int shard) {
  uint64_t version = 0;
  for (int i = 0; i < cluster.masters_per_shard(); ++i) {
    const int m = shard * cluster.masters_per_shard() + i;
    version = std::max(version, cluster.master(m).version());
  }
  return version;
}

void PrintReport(Cluster& cluster) {
  std::printf("\n--- simulation report (t = %.1f virtual seconds) ---\n",
              static_cast<double>(cluster.sim().Now()) / kSecond);

  const Cluster::Totals totals = cluster.ComputeTotals();
  const ClientMetrics& c = totals.clients;
  std::printf("clients:\n");
  std::printf("  reads: issued=%llu accepted=%llu stale-rejected=%llu "
              "retries=%llu\n",
              (unsigned long long)c.reads_issued,
              (unsigned long long)c.reads_accepted,
              (unsigned long long)c.reads_rejected_stale,
              (unsigned long long)c.retries);
  std::printf("  double-checks=%llu mismatches(caught red-handed)=%llu\n",
              (unsigned long long)c.double_checks_sent,
              (unsigned long long)c.double_check_mismatches);
  std::printf("  writes committed=%llu  pledges forwarded=%llu\n",
              (unsigned long long)c.writes_committed,
              (unsigned long long)c.pledges_forwarded);
  std::printf("  fork check: vv-exchanges=%llu forks-detected=%llu "
              "evidence-chains=%llu\n",
              (unsigned long long)c.vv_exchanges_sent,
              (unsigned long long)(c.forks_detected +
                                   totals.auditors.forks_detected),
              (unsigned long long)(c.evidence_chains_emitted +
                                   totals.auditors.evidence_chains_emitted));
  if (cluster.config().track_ground_truth) {
    std::printf("  ground truth: checked=%llu WRONG-ACCEPTED=%llu\n",
                (unsigned long long)cluster.accepted_checked(),
                (unsigned long long)cluster.accepted_wrong());
  }
  if (c.read_latency_us.count() > 0) {
    std::printf("  read latency: p50=%.1fms p99=%.1fms (all clients)\n",
                c.read_latency_us.Median() / 1000.0,
                c.read_latency_us.P99() / 1000.0);
  }

  std::printf("scale-out:\n");
  std::printf("  shards=%d  placement cache: hits=%llu misses=%llu\n",
              cluster.num_shards(),
              (unsigned long long)c.placement_cache_hits,
              (unsigned long long)c.placement_cache_misses);
  std::printf("  multi-shard: reads=%llu (legs %llu/%llu) writes=%llu "
              "(legs committed=%llu)\n",
              (unsigned long long)c.multi_shard_reads,
              (unsigned long long)c.shard_subreads_accepted,
              (unsigned long long)c.shard_subreads_issued,
              (unsigned long long)c.multi_shard_writes,
              (unsigned long long)c.shard_subwrites_committed);
  std::printf("  group commit: batches=%llu state-updates=%llu "
              "commit-sigs=%llu (sigs/write=%.2f)\n",
              (unsigned long long)totals.masters.batches_committed,
              (unsigned long long)totals.masters.state_updates_sent,
              (unsigned long long)totals.masters.commit_signatures,
              totals.masters.writes_committed == 0
                  ? 0.0
                  : static_cast<double>(totals.masters.commit_signatures) /
                        static_cast<double>(totals.masters.writes_committed));
  for (int sh = 0; sh < cluster.num_shards(); ++sh) {
    const Cluster::Totals st = cluster.ComputeShardTotals(sh);
    std::printf("  shard[%d]: version=%llu writes=%llu reads-served=%llu "
                "audited=%llu\n",
                sh, (unsigned long long)ShardVersion(cluster, sh),
                (unsigned long long)st.masters.writes_committed,
                (unsigned long long)st.slaves.reads_served,
                (unsigned long long)st.auditors.pledges_audited);
  }
  if (ClientFleet* fleet = cluster.fleet()) {
    const ClientFleet::Metrics& fm = totals.fleet;
    std::printf("fleet: %zu simulated clients\n", fleet->num_clients());
    std::printf("  reads: issued=%llu accepted=%llu failed=%llu legs=%llu\n",
                (unsigned long long)fm.reads_issued,
                (unsigned long long)fm.reads_accepted,
                (unsigned long long)fm.reads_failed,
                (unsigned long long)fm.subreads_sent);
    std::printf("  writes: issued=%llu committed=%llu failed=%llu  "
                "pledges forwarded=%llu\n",
                (unsigned long long)fm.writes_issued,
                (unsigned long long)fm.writes_committed,
                (unsigned long long)fm.writes_failed,
                (unsigned long long)fm.pledges_forwarded);
    std::printf("  read rtt: p50=%.1fms p99=%.1fms\n",
                fm.read_rtt_us.Median() / 1000.0,
                fm.read_rtt_us.P99() / 1000.0);
  }

  std::printf("masters:\n");
  for (int m = 0; m < cluster.num_masters(); ++m) {
    const MasterMetrics& mm = cluster.master(m).metrics();
    std::printf("  master[%d] node%u: version=%llu writes=%llu dchecks=%llu "
                "lies-found=%llu excluded=%llu work=%llu\n",
                m, cluster.master(m).id(),
                (unsigned long long)cluster.master(m).version(),
                (unsigned long long)mm.writes_committed,
                (unsigned long long)mm.double_checks_served,
                (unsigned long long)mm.double_check_lies_found,
                (unsigned long long)mm.slaves_excluded,
                (unsigned long long)mm.work_units_executed);
  }
  std::printf("slaves:\n");
  for (int s = 0; s < cluster.num_slaves(); ++s) {
    const SlaveMetrics& sm = cluster.slave(s).metrics();
    std::printf("  slave[%d] node%u: v=%llu served=%llu declined=%llu "
                "lies=%llu work=%llu sigs-reused=%llu%s\n",
                s, cluster.slave(s).id(),
                (unsigned long long)cluster.slave(s).applied_version(),
                (unsigned long long)sm.reads_served,
                (unsigned long long)sm.reads_declined_stale,
                (unsigned long long)sm.lies_told,
                (unsigned long long)sm.work_units_executed,
                (unsigned long long)sm.pledge_signatures_reused,
                cluster.ExcludedByAnyMaster(cluster.slave(s).id())
                    ? "  [EXCLUDED]"
                    : "");
  }
  std::printf("auditors:\n");
  for (int a = 0; a < cluster.num_auditors(); ++a) {
    const AuditorMetrics& am = cluster.auditor(a).metrics();
    std::printf("  auditor[%d] node%u: received=%llu audited=%llu "
                "cache-hits=%llu mismatches=%llu notices=%llu lag=%llu "
                "backlog=%zu pruned=%llu bad-sig=%llu\n",
                a, cluster.auditor(a).id(),
                (unsigned long long)am.pledges_received,
                (unsigned long long)am.pledges_audited,
                (unsigned long long)am.cache_hits,
                (unsigned long long)am.mismatches_found,
                (unsigned long long)am.bad_read_notices_sent,
                (unsigned long long)cluster.auditor(a).version_lag(),
                cluster.auditor(a).backlog(),
                (unsigned long long)am.pledges_version_pruned,
                (unsigned long long)am.pledges_bad_signature);
    std::printf("    engine: deduped=%llu memo-hits=%llu memo-misses=%llu "
                "pool-work=%llu sig-evictions=%llu\n",
                (unsigned long long)am.pledges_deduped,
                (unsigned long long)am.reexec_memo_hits,
                (unsigned long long)am.reexec_memo_misses,
                (unsigned long long)am.audit_workers_busy,
                (unsigned long long)am.sig_cache_evictions);
  }
  std::printf("network: %llu messages sent, %llu delivered, %.1f MB\n",
              (unsigned long long)cluster.net().messages_sent(),
              (unsigned long long)cluster.net().messages_delivered(),
              static_cast<double>(cluster.net().bytes_sent()) / 1e6);
}

// Machine-readable report. JsonValue objects are std::map-backed, so keys
// emit sorted and the dump is byte-identical across runs with the same
// seed and flags — CI diffs these artifacts directly.
JsonValue JsonReport(Cluster& cluster, const ChaosController* controller) {
  JsonValue root = JsonValue::Object();
  root["virtual_seconds"] =
      static_cast<double>(cluster.sim().Now()) / kSecond;
  root["seed"] = cluster.config().seed;

  const Cluster::Totals totals = cluster.ComputeTotals();
  JsonValue& t = root["totals"];
  t["clients"] = MetricsJson(totals.clients);
  t["masters"] = MetricsJson(totals.masters);
  t["slaves"] = MetricsJson(totals.slaves);
  t["auditors"] = MetricsJson(totals.auditors);
  t["fleet"] = MetricsJson(totals.fleet);

  JsonValue shards = JsonValue::Array();
  for (int sh = 0; sh < cluster.num_shards(); ++sh) {
    const Cluster::Totals st = cluster.ComputeShardTotals(sh);
    JsonValue j = JsonValue::Object();
    j["index"] = sh;
    j["version"] = ShardVersion(cluster, sh);
    j["masters"] = MetricsJson(st.masters);
    j["slaves"] = MetricsJson(st.slaves);
    j["auditors"] = MetricsJson(st.auditors);
    shards.Append(std::move(j));
  }
  root["shards"] = std::move(shards);

  if (ClientFleet* fleet = cluster.fleet()) {
    JsonValue f = MetricsJson(totals.fleet);
    f["node"] = static_cast<int64_t>(fleet->id());
    f["num_clients"] = fleet->num_clients();
    root["fleet"] = std::move(f);
  }
  if (cluster.config().track_ground_truth) {
    JsonValue& g = root["ground_truth"];
    g["accepted_checked"] = cluster.accepted_checked();
    g["accepted_wrong"] = cluster.accepted_wrong();
    g["accepted_uncheckable"] = cluster.accepted_uncheckable();
  }

  // One entry per node: its whole metrics struct plus node state.
  JsonValue clients = JsonValue::Array();
  for (int i = 0; i < cluster.num_clients(); ++i) {
    const Client& client = cluster.client(i);
    clients.Append(NodeMetricsJson(i, client.id(), client.metrics()));
  }
  root["clients"] = std::move(clients);

  JsonValue masters = JsonValue::Array();
  for (int i = 0; i < cluster.num_masters(); ++i) {
    const Master& master = cluster.master(i);
    JsonValue j = NodeMetricsJson(i, master.id(), master.metrics());
    j["version"] = master.version();
    masters.Append(std::move(j));
  }
  root["masters"] = std::move(masters);

  JsonValue slaves = JsonValue::Array();
  for (int i = 0; i < cluster.num_slaves(); ++i) {
    const Slave& slave = cluster.slave(i);
    JsonValue j = NodeMetricsJson(i, slave.id(), slave.metrics());
    j["applied_version"] = slave.applied_version();
    j["excluded"] = cluster.ExcludedByAnyMaster(slave.id());
    slaves.Append(std::move(j));
  }
  root["slaves"] = std::move(slaves);

  JsonValue auditors = JsonValue::Array();
  for (int i = 0; i < cluster.num_auditors(); ++i) {
    const Auditor& auditor = cluster.auditor(i);
    JsonValue j = NodeMetricsJson(i, auditor.id(), auditor.metrics());
    j["version_lag"] = auditor.version_lag();
    j["backlog"] = auditor.backlog();
    auditors.Append(std::move(j));
  }
  root["auditors"] = std::move(auditors);

  JsonValue& net = root["network"];
  net["messages_sent"] = cluster.net().messages_sent();
  net["messages_delivered"] = cluster.net().messages_delivered();
  net["bytes_sent"] = cluster.net().bytes_sent();
  net["messages_dropped"] = cluster.net().messages_dropped();
  net["dropped_node"] = cluster.net().messages_dropped_node();
  net["dropped_partition"] = cluster.net().messages_dropped_partition();
  net["dropped_loss"] = cluster.net().messages_dropped_loss();

  // With --trace the run-wide latency histograms (read RTT, audit lag,
  // detection latency, queue wait) merge into the report; keys stay sorted
  // so the dump remains byte-stable per seed.
  if (TraceSink* sink = cluster.trace()) {
    root["histograms"] = HistogramSummaryJson(sink->MergedHistograms());
    JsonValue& tr = root["trace"];
    tr["events"] = sink->total_emitted();
    tr["dropped"] = sink->dropped();
  }

  if (controller != nullptr) {
    JsonValue verdicts = JsonValue::Array();
    for (const auto& checker : controller->checkers()) {
      JsonValue j = JsonValue::Object();
      j["name"] = checker->name();
      j["pass"] = !checker->violated();
      if (checker->violated()) {
        j["violation"] = checker->violation()->ToString();
      }
      verdicts.Append(std::move(j));
    }
    root["chaos_invariants"] = std::move(verdicts);
  }
  return root;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Define("seed", "1", "simulation seed")
      .Define("seconds", "60", "virtual seconds to run")
      .Define("masters", "2", "number of serving masters")
      .Define("auditors", "1", "number of auditors")
      .Define("slaves_per_master", "2", "slaves per master")
      .Define("clients", "4", "number of clients")
      .Define("items", "200", "catalogue size (documents = 3x)")
      .Define("shards", "1",
              "keyspace shards, each with its own master group + slaves + "
              "auditors and an independent version sequence (1 = the "
              "paper's single group)")
      .Define("commit_batch", "1",
              "master-side group commit: writes bundled per broadcast "
              "(1 = the paper's one-write-per-commit path)")
      .Define("commit_window_us", "10000",
              "max time a write waits for its bundle to fill "
              "(with --commit_batch > 1)")
      .Define("fleet_clients", "0",
              "simulated open-loop clients multiplexed onto one fleet "
              "node (0 = none; see src/workload/fleet.h)")
      .Define("fleet_rps", "1.0", "per-fleet-client reads per second")
      .Define("fleet_write_fraction", "0.0",
              "fraction of fleet ops that write")
      .Define("max_latency_ms", "2000", "freshness bound / write spacing")
      .Define("keepalive_ms", "500", "keep-alive period")
      .Define("double_check_p", "0.05", "double-check probability")
      .Define("write_fraction", "0.02", "fraction of client ops that write")
      .Define("think_ms", "100", "client think time (closed loop)")
      .Define("liar_every", "0",
              "every Nth slave lies (0 = everyone honest)")
      .Define("lie_probability", "0.1", "lie rate for lying slaves")
      .Define("greedy_client", "false", "make client 0 greedy")
      .Define("policing", "false", "enable greedy-client policing")
      .Define("scheme", "ed25519", "ed25519 | hmac | null")
      .Define("link_ms", "5", "one-way link latency")
      .Define("grep_weight", "0.10", "query-mix weight of GREP")
      .Define("auditor_cache", "true", "auditor result cache")
      .Define("audit_jobs", "1",
              "host worker lanes for the auditor's re-execution engine "
              "(host CPU only; the report is byte-identical at any value)")
      .Define("audit_verify_cache", "1024",
              "auditor verify-dedup cache capacity (entries)")
      .Define("ground_truth", "true", "validate accepted reads")
      .Define("fork_check", "false",
              "enable the fork-consistency subsystem (signed version "
              "vectors on read replies, client gossip, auditor "
              "reconciliation; see src/forkcheck/)")
      .Define("vv_gossip_ms", "1000",
              "client version-vector gossip period (with --fork_check)")
      .Define("vv_fanout", "2",
              "gossip targets per round (with --fork_check)")
      .Define("evidence_out", "",
              "write collected fork-evidence chains as a verifiable "
              "bundle to this file (for sdrtrace --evidence)")
      .Define("scenario", "",
              "chaos scenario applied during the run (see docs/CHAOS.md)")
      .Define("chaos_cadence_ms", "250", "invariant-checking cadence")
      .Define("json", "false",
              "emit the report as deterministic JSON (sorted keys, "
              "byte-stable per seed) instead of the text report")
      .Define("trace", "false",
              "enable the tracing subsystem (adds histogram summaries to "
              "--json; implied by --trace_out / --trace_chrome)")
      .Define("trace_out", "",
              "write the binary trace (SDRT) to this file, for sdrtrace")
      .Define("trace_chrome", "",
              "write a Chrome trace_event JSON file (Perfetto-loadable)")
      .Define("trace_capacity", "1048576", "trace ring-buffer capacity")
      .Define("trace_sim_spans", "false",
              "also trace every simulator event dispatch (verbose)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  ClusterConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  config.num_masters = static_cast<int>(flags.GetInt("masters"));
  config.num_auditors = static_cast<int>(flags.GetInt("auditors"));
  config.slaves_per_master =
      static_cast<int>(flags.GetInt("slaves_per_master"));
  config.num_clients = static_cast<int>(flags.GetInt("clients"));
  config.num_shards = static_cast<int>(flags.GetInt("shards"));
  config.params.commit_batch =
      static_cast<uint32_t>(flags.GetInt("commit_batch"));
  config.params.commit_window =
      flags.GetInt("commit_window_us") * kMicrosecond;
  config.fleet_clients = static_cast<int>(flags.GetInt("fleet_clients"));
  config.fleet_reads_per_second = flags.GetDouble("fleet_rps");
  config.fleet_write_fraction = flags.GetDouble("fleet_write_fraction");
  config.corpus.n_items = static_cast<size_t>(flags.GetInt("items"));
  config.params.max_latency = flags.GetInt("max_latency_ms") * kMillisecond;
  config.params.keepalive_period = flags.GetInt("keepalive_ms") * kMillisecond;
  config.params.double_check_probability = flags.GetDouble("double_check_p");
  config.params.greedy_policing_enabled = flags.GetBool("policing");
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = flags.GetInt("think_ms") * kMillisecond;
  config.client_write_fraction = flags.GetDouble("write_fraction");
  config.default_link =
      LinkModel{flags.GetInt("link_ms") * kMillisecond,
                flags.GetInt("link_ms") * kMillisecond / 2, 0.0};
  config.mix.grep_weight = flags.GetDouble("grep_weight");
  config.auditor_use_cache = flags.GetBool("auditor_cache");
  config.audit_jobs = static_cast<int>(flags.GetInt("audit_jobs"));
  config.params.audit_verify_cache_entries =
      static_cast<uint32_t>(flags.GetInt("audit_verify_cache"));
  config.track_ground_truth = flags.GetBool("ground_truth");
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

  int liar_every = static_cast<int>(flags.GetInt("liar_every"));
  double lie_p = flags.GetDouble("lie_probability");
  if (liar_every > 0) {
    config.slave_behavior = [liar_every, lie_p](int index) {
      Slave::Behavior b;
      if (index % liar_every == 0) {
        b.lie_probability = lie_p;
      }
      return b;
    };
  }
  if (flags.GetBool("greedy_client")) {
    config.tweak_client = [](int index, Client::Options& opts) {
      if (index == 0) {
        opts.greedy = true;
      }
    };
  }

  const std::string trace_out = flags.GetString("trace_out");
  const std::string trace_chrome = flags.GetString("trace_chrome");
  config.trace.enabled = flags.GetBool("trace") || !trace_out.empty() ||
                         !trace_chrome.empty();
  config.trace.capacity =
      static_cast<size_t>(flags.GetInt("trace_capacity"));
  config.trace.sim_spans = flags.GetBool("trace_sim_spans");

  auto parsed = ParseScenario(flags.GetString("scenario"));
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad --scenario: %s\n",
                 parsed.error().message().c_str());
    return 1;
  }
  Scenario scenario = std::move(parsed).value();

  // Every explicitly set flag except the host-only audit_jobs: the report
  // alone reproduces the run and is the same at any job count.
  auto echoed_flags = flags.NonDefault();
  std::erase_if(echoed_flags,
                [](const auto& flag) { return flag.first == "audit_jobs"; });
  const bool emit_json = flags.GetBool("json");
  if (!emit_json) {
    std::printf("sdrsim: %d masters, %d auditors, %d slaves, %d clients, "
                "scheme=%s, %lld virtual seconds\n",
                config.num_masters, config.num_auditors,
                config.num_masters * config.slaves_per_master,
                config.num_clients, scheme.c_str(),
                static_cast<long long>(flags.GetInt("seconds")));
    std::printf("seed: %llu\n",
                static_cast<unsigned long long>(config.seed));
    for (const auto& [name, value] : echoed_flags) {
      std::printf("  --%s=%s\n", name.c_str(), value.c_str());
    }
  }

  Cluster cluster(config);
  ChaosController controller(
      &cluster, scenario, DefaultCheckers(config),
      ChaosControllerOptions{flags.GetInt("chaos_cadence_ms") * kMillisecond});
  if (!scenario.empty()) {
    if (!emit_json) {
      std::printf("scenario: %s\n", scenario.ToString().c_str());
    }
    controller.Install();
  }
  cluster.RunFor(flags.GetInt("seconds") * kSecond);
  if (!scenario.empty()) {
    controller.Finish();
  }
  if (cluster.trace() != nullptr) {
    // One snapshot feeds both exporters so the files agree byte-for-byte
    // with each other on the same run.
    TraceData data = Snapshot(*cluster.trace());
    if (!trace_out.empty() &&
        !WriteFileBytes(trace_out, EncodeTrace(data))) {
      return 1;
    }
    if (!trace_chrome.empty() &&
        !WriteFileString(trace_chrome,
                         ChromeTraceJson(data).Dump() + "\n")) {
      return 1;
    }
  }
  const std::string evidence_out = flags.GetString("evidence_out");
  if (!evidence_out.empty()) {
    EvidenceBundle bundle;
    bundle.scheme = config.params.scheme;
    bundle.content_public_key = cluster.content().content_public_key;
    bundle.chains = cluster.fork_evidence();
    if (!WriteFileBytes(evidence_out, bundle.Encode())) {
      return 1;
    }
    if (!emit_json) {
      std::printf("evidence bundle: %zu chain(s) -> %s\n",
                  bundle.chains.size(), evidence_out.c_str());
    }
  }
  if (emit_json) {
    // Pure JSON on stdout: the whole report, flags echo included, so the
    // artifact alone reproduces the run.
    JsonValue root = JsonReport(cluster, scenario.empty() ? nullptr
                                                          : &controller);
    JsonValue fl = JsonValue::Object();
    for (const auto& [name, value] : echoed_flags) {
      fl[name] = value;
    }
    root["flags"] = std::move(fl);
    std::printf("%s\n", root.Dump(2).c_str());
    return 0;
  }
  PrintReport(cluster);
  if (!scenario.empty()) {
    std::printf("chaos invariants:\n");
    for (const auto& checker : controller.checkers()) {
      if (checker->violated()) {
        std::printf("  %s: FAIL — %s\n", checker->name().c_str(),
                    checker->violation()->ToString().c_str());
      } else {
        std::printf("  %s: PASS\n", checker->name().c_str());
      }
    }
  }
  return 0;
}
