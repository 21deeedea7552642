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

void PrintReport(Cluster& cluster) {
  std::printf("\n--- simulation report (t = %.1f virtual seconds) ---\n",
              static_cast<double>(cluster.sim().Now()) / kSecond);

  auto totals = cluster.ComputeTotals();
  std::printf("clients:\n");
  std::printf("  reads: issued=%llu accepted=%llu stale-rejected=%llu "
              "retries=%llu\n",
              (unsigned long long)totals.reads_issued,
              (unsigned long long)totals.reads_accepted,
              (unsigned long long)totals.reads_rejected_stale,
              (unsigned long long)totals.retries);
  std::printf("  double-checks=%llu mismatches(caught red-handed)=%llu\n",
              (unsigned long long)totals.double_checks_sent,
              (unsigned long long)totals.double_check_mismatches);
  std::printf("  writes committed=%llu  pledges forwarded=%llu\n",
              (unsigned long long)totals.writes_committed_clients,
              (unsigned long long)totals.pledges_forwarded);
  if (cluster.config().params.fork_check_enabled) {
    std::printf("  fork check: vv-exchanges=%llu forks-detected=%llu "
                "evidence-chains=%llu\n",
                (unsigned long long)totals.vv_exchanges,
                (unsigned long long)totals.forks_detected,
                (unsigned long long)totals.evidence_chains_emitted);
  }
  if (cluster.config().track_ground_truth) {
    std::printf("  ground truth: checked=%llu WRONG-ACCEPTED=%llu\n",
                (unsigned long long)cluster.accepted_checked(),
                (unsigned long long)cluster.accepted_wrong());
  }
  std::printf("  read latency: p50=%.1fms p99=%.1fms (client 0)\n",
              cluster.client(0).metrics().read_latency_us.Median() / 1000.0,
              cluster.client(0).metrics().read_latency_us.P99() / 1000.0);

  // Scale-out counters only exist when sharding or group commit is on, so
  // classic reports stay byte-identical.
  if (cluster.num_shards() > 1 || cluster.config().params.commit_batch > 1) {
    std::printf("scale-out:\n");
    std::printf("  shards=%d  placement cache: hits=%llu misses=%llu\n",
                cluster.num_shards(),
                (unsigned long long)totals.placement_cache_hits,
                (unsigned long long)totals.placement_cache_misses);
    std::printf("  multi-shard: reads=%llu (legs %llu/%llu) writes=%llu "
                "(legs committed=%llu)\n",
                (unsigned long long)totals.multi_shard_reads,
                (unsigned long long)totals.shard_subreads_accepted,
                (unsigned long long)totals.shard_subreads_issued,
                (unsigned long long)totals.multi_shard_writes,
                (unsigned long long)totals.shard_subwrites_committed);
    std::printf("  group commit: writes_batched=%llu batches=%llu "
                "batch-updates=%llu commit-sigs=%llu (sigs/write=%.2f)\n",
                (unsigned long long)totals.writes_batched,
                (unsigned long long)totals.batches_committed,
                (unsigned long long)totals.state_update_batches,
                (unsigned long long)totals.commit_signatures,
                totals.writes_committed_masters == 0
                    ? 0.0
                    : static_cast<double>(totals.commit_signatures) /
                          static_cast<double>(totals.writes_committed_masters));
    for (int sh = 0; sh < cluster.num_shards(); ++sh) {
      uint64_t version = 0, writes = 0, served = 0, audited = 0;
      for (int i = 0; i < cluster.masters_per_shard(); ++i) {
        const Master& m = cluster.master(sh * cluster.masters_per_shard() + i);
        version = std::max(version, m.version());
        writes += m.metrics().writes_committed;
      }
      for (int i = 0; i < cluster.slaves_per_shard(); ++i) {
        served += cluster.slave(sh * cluster.slaves_per_shard() + i)
                      .metrics().reads_served;
      }
      for (int i = 0; i < cluster.auditors_per_shard(); ++i) {
        audited += cluster.auditor(sh * cluster.auditors_per_shard() + i)
                       .metrics().pledges_audited;
      }
      std::printf("  shard[%d]: version=%llu writes=%llu reads-served=%llu "
                  "audited=%llu\n",
                  sh, (unsigned long long)version, (unsigned long long)writes,
                  (unsigned long long)served, (unsigned long long)audited);
    }
  }
  if (ClientFleet* fleet = cluster.fleet()) {
    const ClientFleet::Metrics& fm = fleet->metrics();
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

  auto totals = cluster.ComputeTotals();
  JsonValue& t = root["totals"];
  t["reads_issued"] = totals.reads_issued;
  t["reads_accepted"] = totals.reads_accepted;
  t["reads_rejected_stale"] = totals.reads_rejected_stale;
  t["retries"] = totals.retries;
  t["double_checks_sent"] = totals.double_checks_sent;
  t["double_check_mismatches"] = totals.double_check_mismatches;
  t["pledges_forwarded"] = totals.pledges_forwarded;
  t["writes_committed_clients"] = totals.writes_committed_clients;
  t["slave_work_units"] = totals.slave_work_units;
  t["master_work_units"] = totals.master_work_units;
  t["auditor_work_units"] = totals.auditor_work_units;
  t["slaves_excluded"] = totals.slaves_excluded;
  t["auditor_mismatches"] = totals.auditor_mismatches;
  t["lies_told"] = totals.lies_told;
  t["pledge_signatures_reused"] = totals.pledge_signatures_reused;
  // Fork-consistency counters appear only when the subsystem is on, so
  // disabled-mode artifacts stay byte-identical to pre-forkcheck runs.
  if (cluster.config().params.fork_check_enabled) {
    t["forks_detected"] = totals.forks_detected;
    t["evidence_chains_emitted"] = totals.evidence_chains_emitted;
    t["vv_exchanges"] = totals.vv_exchanges;
  }
  // Scale-out counters appear only when sharding or group commit is on,
  // so classic artifacts stay byte-identical to pre-scale-out runs.
  if (cluster.num_shards() > 1 || cluster.config().params.commit_batch > 1) {
    t["writes_committed_masters"] = totals.writes_committed_masters;
    t["writes_batched"] = totals.writes_batched;
    t["batches_committed"] = totals.batches_committed;
    t["state_update_batches"] = totals.state_update_batches;
    t["commit_signatures"] = totals.commit_signatures;
    t["placement_cache_hits"] = totals.placement_cache_hits;
    t["placement_cache_misses"] = totals.placement_cache_misses;
    t["multi_shard_reads"] = totals.multi_shard_reads;
    t["multi_shard_writes"] = totals.multi_shard_writes;
    t["shard_subreads_issued"] = totals.shard_subreads_issued;
    t["shard_subreads_accepted"] = totals.shard_subreads_accepted;
    t["shard_subwrites_committed"] = totals.shard_subwrites_committed;
    JsonValue shards = JsonValue::Array();
    for (int sh = 0; sh < cluster.num_shards(); ++sh) {
      uint64_t version = 0, writes = 0, served = 0, audited = 0;
      for (int i = 0; i < cluster.masters_per_shard(); ++i) {
        const Master& m =
            cluster.master(sh * cluster.masters_per_shard() + i);
        version = std::max(version, m.version());
        writes += m.metrics().writes_committed;
      }
      for (int i = 0; i < cluster.slaves_per_shard(); ++i) {
        served += cluster.slave(sh * cluster.slaves_per_shard() + i)
                      .metrics().reads_served;
      }
      for (int i = 0; i < cluster.auditors_per_shard(); ++i) {
        audited += cluster.auditor(sh * cluster.auditors_per_shard() + i)
                       .metrics().pledges_audited;
      }
      JsonValue j = JsonValue::Object();
      j["index"] = sh;
      j["version"] = version;
      j["writes_committed"] = writes;
      j["reads_served"] = served;
      j["pledges_audited"] = audited;
      shards.Append(std::move(j));
    }
    root["shards"] = std::move(shards);
  }
  if (ClientFleet* fleet = cluster.fleet()) {
    const ClientFleet::Metrics& fm = fleet->metrics();
    JsonValue& f = root["fleet"];
    f["num_clients"] = fleet->num_clients();
    f["reads_issued"] = fm.reads_issued;
    f["reads_accepted"] = fm.reads_accepted;
    f["reads_failed"] = fm.reads_failed;
    f["subreads_sent"] = fm.subreads_sent;
    f["writes_issued"] = fm.writes_issued;
    f["writes_committed"] = fm.writes_committed;
    f["writes_failed"] = fm.writes_failed;
    f["pledges_forwarded"] = fm.pledges_forwarded;
    f["sig_cache_hits"] = fm.sig_cache_hits;
    f["sig_cache_misses"] = fm.sig_cache_misses;
    f["sig_cache_keys_prepared"] = fm.sig_cache_keys_prepared;
    f["read_rtt_p50_us"] = fm.read_rtt_us.Median();
    f["read_rtt_p99_us"] = fm.read_rtt_us.P99();
    f["write_rtt_p50_us"] = fm.write_rtt_us.Median();
    f["write_rtt_p99_us"] = fm.write_rtt_us.P99();
  }
  if (cluster.config().track_ground_truth) {
    JsonValue& g = root["ground_truth"];
    g["accepted_checked"] = cluster.accepted_checked();
    g["accepted_wrong"] = cluster.accepted_wrong();
    g["accepted_uncheckable"] = cluster.accepted_uncheckable();
  }

  const bool scale_out = cluster.num_shards() > 1 ||
                         cluster.config().params.commit_batch > 1;
  JsonValue clients = JsonValue::Array();
  uint64_t cache_hits = 0, cache_misses = 0, keys_prepared = 0;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    const ClientMetrics& cm = cluster.client(c).metrics();
    JsonValue j = JsonValue::Object();
    j["index"] = c;
    j["node"] = (int64_t)cluster.client(c).id();
    if (scale_out) {
      j["placement_cache_hits"] = cm.placement_cache_hits;
      j["placement_cache_misses"] = cm.placement_cache_misses;
      j["multi_shard_reads"] = cm.multi_shard_reads;
      j["multi_shard_writes"] = cm.multi_shard_writes;
      j["merged_token_age_p50_us"] = cm.merged_token_age_us.Median();
      j["merged_token_age_p99_us"] = cm.merged_token_age_us.P99();
    }
    j["reads_issued"] = cm.reads_issued;
    j["reads_accepted"] = cm.reads_accepted;
    j["reads_rejected_stale"] = cm.reads_rejected_stale;
    j["reads_rejected_bad_sig"] = cm.reads_rejected_bad_sig;
    j["reads_rejected_hash"] = cm.reads_rejected_hash;
    j["double_checks_sent"] = cm.double_checks_sent;
    j["double_check_mismatches"] = cm.double_check_mismatches;
    j["writes_committed"] = cm.writes_committed;
    j["bad_read_notices"] = cm.bad_read_notices;
    j["sig_cache_hits"] = cm.sig_cache_hits;
    j["sig_cache_misses"] = cm.sig_cache_misses;
    j["sig_cache_keys_prepared"] = cm.sig_cache_keys_prepared;
    j["read_latency_p50_us"] = cm.read_latency_us.Median();
    j["read_latency_p99_us"] = cm.read_latency_us.P99();
    cache_hits += cm.sig_cache_hits;
    cache_misses += cm.sig_cache_misses;
    keys_prepared += cm.sig_cache_keys_prepared;
    clients.Append(std::move(j));
  }
  root["clients"] = std::move(clients);

  JsonValue masters = JsonValue::Array();
  for (int m = 0; m < cluster.num_masters(); ++m) {
    const MasterMetrics& mm = cluster.master(m).metrics();
    JsonValue j = JsonValue::Object();
    j["index"] = m;
    j["node"] = (int64_t)cluster.master(m).id();
    j["version"] = cluster.master(m).version();
    j["writes_committed"] = mm.writes_committed;
    j["double_checks_served"] = mm.double_checks_served;
    j["double_check_lies_found"] = mm.double_check_lies_found;
    j["slaves_excluded"] = mm.slaves_excluded;
    j["work_units"] = mm.work_units_executed;
    j["sig_cache_hits"] = mm.sig_cache_hits;
    j["sig_cache_misses"] = mm.sig_cache_misses;
    j["sig_cache_keys_prepared"] = mm.sig_cache_keys_prepared;
    cache_hits += mm.sig_cache_hits;
    cache_misses += mm.sig_cache_misses;
    keys_prepared += mm.sig_cache_keys_prepared;
    masters.Append(std::move(j));
  }
  root["masters"] = std::move(masters);

  JsonValue slaves = JsonValue::Array();
  for (int s = 0; s < cluster.num_slaves(); ++s) {
    const SlaveMetrics& sm = cluster.slave(s).metrics();
    JsonValue j = JsonValue::Object();
    j["index"] = s;
    j["node"] = (int64_t)cluster.slave(s).id();
    j["applied_version"] = cluster.slave(s).applied_version();
    j["reads_served"] = sm.reads_served;
    j["reads_declined_stale"] = sm.reads_declined_stale;
    j["lies_told"] = sm.lies_told;
    j["consistent_lies_told"] = sm.consistent_lies_told;
    j["work_units"] = sm.work_units_executed;
    j["pledge_signatures_reused"] = sm.pledge_signatures_reused;
    j["sig_cache_hits"] = sm.sig_cache_hits;
    j["sig_cache_misses"] = sm.sig_cache_misses;
    j["sig_cache_keys_prepared"] = sm.sig_cache_keys_prepared;
    j["excluded"] = cluster.ExcludedByAnyMaster(cluster.slave(s).id());
    cache_hits += sm.sig_cache_hits;
    cache_misses += sm.sig_cache_misses;
    keys_prepared += sm.sig_cache_keys_prepared;
    slaves.Append(std::move(j));
  }
  root["slaves"] = std::move(slaves);

  JsonValue auditors = JsonValue::Array();
  for (int a = 0; a < cluster.num_auditors(); ++a) {
    const AuditorMetrics& am = cluster.auditor(a).metrics();
    JsonValue j = JsonValue::Object();
    j["index"] = a;
    j["node"] = (int64_t)cluster.auditor(a).id();
    j["pledges_received"] = am.pledges_received;
    j["pledges_audited"] = am.pledges_audited;
    j["pledges_version_pruned"] = am.pledges_version_pruned;
    j["pledges_bad_signature"] = am.pledges_bad_signature;
    j["mismatches_found"] = am.mismatches_found;
    j["bad_read_notices_sent"] = am.bad_read_notices_sent;
    j["cache_hits"] = am.cache_hits;
    j["pledges_deduped"] = am.pledges_deduped;
    j["reexec_memo_hits"] = am.reexec_memo_hits;
    j["reexec_memo_misses"] = am.reexec_memo_misses;
    j["audit_workers_busy"] = am.audit_workers_busy;
    j["verify_batches"] = am.verify_batches;
    j["sigs_batch_verified"] = am.sigs_batch_verified;
    j["sig_cache_hits"] = am.sig_cache_hits;
    j["sig_cache_misses"] = am.sig_cache_misses;
    j["sig_cache_keys_prepared"] = am.sig_cache_keys_prepared;
    j["sig_cache_evictions"] = am.sig_cache_evictions;
    j["version_lag"] = cluster.auditor(a).version_lag();
    j["backlog"] = cluster.auditor(a).backlog();
    cache_hits += am.sig_cache_hits;
    cache_misses += am.sig_cache_misses;
    keys_prepared += am.sig_cache_keys_prepared;
    auditors.Append(std::move(j));
  }
  root["auditors"] = std::move(auditors);

  // Aggregate view of the VerifyCache across every role.
  JsonValue& vc = root["verify_cache"];
  vc["hits"] = cache_hits;
  vc["misses"] = cache_misses;
  vc["keys_prepared"] = keys_prepared;

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

  const bool emit_json = flags.GetBool("json");
  if (!emit_json) {
    std::printf("sdrsim: %d masters, %d auditors, %d slaves, %d clients, "
                "scheme=%s, %lld virtual seconds\n",
                config.num_masters, config.num_auditors,
                config.num_masters * config.slaves_per_master,
                config.num_clients, scheme.c_str(),
                static_cast<long long>(flags.GetInt("seconds")));
    // Echo the seed and every explicitly-set flag so the report alone is
    // enough to reproduce the run.
    std::printf("seed: %llu\n",
                static_cast<unsigned long long>(config.seed));
    for (const auto& [name, value] : flags.NonDefault()) {
      if (name == "audit_jobs") {
        continue;  // host-only knob; keep the report jobs-invariant
      }
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
    for (const auto& [name, value] : flags.NonDefault()) {
      if (name == "audit_jobs") {
        continue;  // host-only knob; keep the artifact jobs-invariant
      }
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
