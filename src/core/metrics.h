// Counters collected by the protocol roles. Each node owns its struct; the
// cluster harness aggregates them for tests and benchmarks.
//
// Each struct is declared by one field list, SDR_<ROLE>_METRICS(X), with
// one X(type, name) entry per field. The list expands to the fields and to
// a static ForEachField visitor, so every report built on ForEachMetric,
// Accumulate and MetricsJson (sdrsim, sdrnode, Cluster::ComputeTotals)
// picks up a new entry with no other edit. A field is a uint64_t counter or
// a LatencyHistogram whose name ends in "_us".
#ifndef SDR_SRC_CORE_METRICS_H_
#define SDR_SRC_CORE_METRICS_H_

#include <cstdint>
#include <string>
#include <type_traits>

#include "src/runtime/env.h"
#include "src/trace/histogram.h"
#include "src/util/json.h"

namespace sdr {

#define SDR_METRIC_FIELD(type, name) type name{};
#define SDR_METRIC_VISIT(type, name) f(#name, &Self::name);

// Expands field list `LIST` inside struct `Name`: the fields in list order,
// and ForEachField(f), which calls f("field", &Name::field) for each.
#define SDR_METRICS_STRUCT(Name, LIST)                                       \
  using Self = Name;                                                         \
  LIST(SDR_METRIC_FIELD)                                                     \
  template <typename F>                                                      \
  static void ForEachField(F&& f) {                                          \
    LIST(SDR_METRIC_VISIT)                                                   \
  }

// Comments inside the lists use /* */: a // comment would swallow the
// line continuation.
#define SDR_CLIENT_METRICS(X)                                                \
  X(uint64_t, reads_issued)                                                  \
  X(uint64_t, reads_accepted)                                                \
  X(uint64_t, reads_rejected_stale)   /* token older than max_latency */     \
  X(uint64_t, reads_rejected_bad_sig) /* pledge/token signature invalid */   \
  X(uint64_t, reads_rejected_hash)    /* result hash != pledge hash */       \
  X(uint64_t, reads_failed_declined)  /* slave said "not in sync" */         \
  X(uint64_t, reads_timed_out)                                               \
  X(uint64_t, retries)                                                       \
  X(uint64_t, double_checks_sent)                                            \
  X(uint64_t, double_check_mismatches) /* caught a lie red-handed */         \
  X(uint64_t, double_checks_unserved)  /* quota-throttled by the master */   \
  /* Read fan-out (ProtocolParams::read_fanout; zero at a fan-out of 1). */  \
  X(uint64_t, fanout_disagreements) /* read-set answers differed */          \
  X(uint64_t, accusations_sent)     /* held pledges the master convicted */  \
  X(uint64_t, pledges_forwarded)       /* to the auditor */                  \
  X(uint64_t, writes_issued)                                                 \
  X(uint64_t, writes_committed)                                              \
  X(uint64_t, writes_rejected)                                               \
  X(uint64_t, reassignments)                                                 \
  X(uint64_t, setups_completed)                                              \
  /* Delayed discovery: accepted reads later reported wrong by the           \
     auditor. */                                                             \
  X(uint64_t, bad_read_notices)                                              \
  /* Fork-consistency checking (src/forkcheck/; all zero unless              \
     enabled). */                                                            \
  X(uint64_t, vv_exchanges_sent)                                             \
  X(uint64_t, vv_exchanges_received)                                         \
  X(uint64_t, forks_detected)                                                \
  X(uint64_t, evidence_chains_emitted)                                       \
  /* Verify-dedup cache (mostly version tokens reused across reads). */      \
  X(uint64_t, sig_cache_hits)                                                \
  X(uint64_t, sig_cache_misses)                                              \
  X(uint64_t, sig_cache_keys_prepared) /* Ed25519 key tables built */        \
  /* Keyspace sharding (src/core/shard.h; all zero unless                    \
     num_shards > 1). */                                                     \
  X(uint64_t, placement_cache_hits)   /* ops planned from the cached map */  \
  X(uint64_t, placement_cache_misses) /* placement fetched from directory */ \
  X(uint64_t, multi_shard_reads)      /* parent reads fanned to >1 shard */  \
  X(uint64_t, multi_shard_writes)     /* parent writes split over shards */  \
  X(uint64_t, shard_subreads_issued)                                         \
  X(uint64_t, shard_subreads_accepted)                                       \
  X(uint64_t, shard_subwrites_committed)                                     \
  X(LatencyHistogram, read_latency_us)                                       \
  X(LatencyHistogram, write_latency_us)                                      \
  /* Age of the oldest per-shard token backing a merged multi-shard read —   \
     the merged freshness bound (empty unless sharded reads fan out). */     \
  X(LatencyHistogram, merged_token_age_us)

struct ClientMetrics {
  SDR_METRICS_STRUCT(ClientMetrics, SDR_CLIENT_METRICS)
};

#define SDR_MASTER_METRICS(X)                                                \
  X(uint64_t, writes_received)                                               \
  X(uint64_t, writes_committed)                                              \
  X(uint64_t, writes_denied_acl)                                             \
  X(uint64_t, double_checks_served)                                          \
  X(uint64_t, double_checks_throttled)                                       \
  X(uint64_t, double_check_lies_found)                                       \
  X(uint64_t, accusations_received)                                          \
  X(uint64_t, accusations_confirmed)                                         \
  /* Guilty pledges against a slave this master had already excluded. */    \
  X(uint64_t, accusations_repeat)                                            \
  X(uint64_t, accusations_unfounded)                                         \
  X(uint64_t, slaves_excluded)                                               \
  X(uint64_t, clients_reassigned)                                            \
  /* Fork-consistency evidence (src/forkcheck/; zero unless enabled). */     \
  X(uint64_t, fork_evidence_received)                                        \
  X(uint64_t, fork_evidence_confirmed)                                       \
  /* State-update messages (certified runs) sent: one per slave per          \
     commit, plus one per ack-driven catch-up. */                            \
  X(uint64_t, state_updates_sent)                                            \
  X(uint64_t, keepalives_sent)                                               \
  X(uint64_t, slave_sets_adopted) /* from crashed peers */                   \
  X(uint64_t, work_units_executed)                                           \
  X(uint64_t, batches_committed) /* commits: one per bundle of writes */     \
  /* Signatures produced on the commit/state-propagation path: a head        \
     token plus a BatchCommit per commit and per catch-up; keepalives        \
     excluded. The per-write signing cost group commit amortizes is          \
     commit_signatures / writes_committed. */                                \
  X(uint64_t, commit_signatures)                                             \
  /* Verify-dedup cache (accusation / incriminating-pledge checks). */       \
  X(uint64_t, sig_cache_hits)                                                \
  X(uint64_t, sig_cache_misses)                                              \
  X(uint64_t, sig_cache_keys_prepared) /* Ed25519 key tables built */

struct MasterMetrics {
  SDR_METRICS_STRUCT(MasterMetrics, SDR_MASTER_METRICS)
};

#define SDR_SLAVE_METRICS(X)                                                 \
  X(uint64_t, reads_served)                                                  \
  X(uint64_t, reads_declined_stale) /* honest slave out of sync */           \
  X(uint64_t, lies_told)            /* malicious behaviour bookkeeping */    \
  /* Lies whose pledge hash matches the corrupted result — the only kind     \
     that can pass client-side checks and so the only kind the protocol      \
     must (and can) eventually punish by exclusion. */                       \
  X(uint64_t, consistent_lies_told)                                          \
  /* Fork-consistency bookkeeping (src/forkcheck/). */                       \
  X(uint64_t, vvs_attached) /* signed commitments on read replies */         \
  /* Reads answered from a forked view that is *behind* the applied          \
     version, and real-store reads while such a divergent view is live.      \
     Both non-zero means both client sets saw the divergence — the forked    \
     chains then provably carry conflicting commitments. */                  \
  X(uint64_t, equivocations_served)                                          \
  X(uint64_t, honest_serves_forked)                                          \
  X(uint64_t, stale_serves) /* reads answered from a lagged view */          \
  X(uint64_t, state_updates_applied) /* versions applied */                  \
  X(uint64_t, keepalives_received)                                           \
  X(uint64_t, work_units_executed)                                           \
  /* Reads served from the slave's memo of honest reads: same version,       \
     same token, same query, so no execution, encoding, hashing or           \
     signing. Host CPU only: the cost model (and work_units_executed)        \
     charges a hit like a miss. Lies are never served from the memo. */      \
  X(uint64_t, pledge_signatures_reused)                                      \
  /* Verify-dedup cache (token adoption checks). */                          \
  X(uint64_t, sig_cache_hits)                                                \
  X(uint64_t, sig_cache_misses)                                              \
  X(uint64_t, sig_cache_keys_prepared) /* Ed25519 key tables built */

struct SlaveMetrics {
  SDR_METRICS_STRUCT(SlaveMetrics, SDR_SLAVE_METRICS)
};

#define SDR_AUDITOR_METRICS(X)                                               \
  X(uint64_t, pledges_received)                                              \
  X(uint64_t, pledges_audited)                                               \
  X(uint64_t, pledges_skipped_sampling)                                      \
  /* Pledge named a version already finalized and pruned — the               \
     audit-window guarantee makes this a protocol violation or extreme       \
     delay. */                                                               \
  X(uint64_t, pledges_version_pruned)                                        \
  /* Re-execution of the pledged query failed against the materialized       \
     store. */                                                               \
  X(uint64_t, pledges_exec_failed)                                           \
  /* Pledges dropped for a bad signature: a forged version token at          \
     admission, or a bad slave signature on a pledge whose hash mismatched   \
     (checked only then, before accusing). A forged slave signature on a     \
     pledge whose hash matches is audited and counted nowhere: it proves     \
     nothing either way. */                                                  \
  X(uint64_t, pledges_bad_signature)                                         \
  X(uint64_t, mismatches_found)                                              \
  X(uint64_t, accusations_sent)                                              \
  /* Cross-client fork reconciliation (src/forkcheck/; zero unless           \
     enabled). */                                                            \
  X(uint64_t, vvs_reconciled)                                                \
  X(uint64_t, forks_detected)                                                \
  X(uint64_t, evidence_chains_emitted)                                       \
  X(uint64_t, bad_read_notices_sent)                                         \
  X(uint64_t, cache_hits)                                                    \
  X(uint64_t, versions_finalized)                                            \
  X(uint64_t, work_units_executed)                                           \
  /* Admission dedup: pledges answered by comparing against a twin's         \
     re-execution in the same batch (one exec, N comparisons). */            \
  X(uint64_t, pledges_deduped)                                               \
  /* Cross-version memo over the committed snapshot: hits reuse a prior      \
     re-execution whose validity interval covers the pledged version;        \
     misses are actual query executions. */                                  \
  X(uint64_t, reexec_memo_hits)                                              \
  X(uint64_t, reexec_memo_misses)                                            \
  /* Work items (snapshot builds + re-executions) handed to the worker       \
     pool. Counts dispatched work, not thread occupancy, so it is            \
     identical at any --audit_jobs value. */                                 \
  X(uint64_t, audit_workers_busy)                                            \
  /* Batched admission verification: version tokens, plus version vectors    \
     with fork checking. Slave pledge signatures are not counted here. */    \
  X(uint64_t, verify_batches)                                                \
  X(uint64_t, sigs_batch_verified)                                           \
  /* Verify-dedup cache (version tokens shared across pledges). */           \
  X(uint64_t, sig_cache_hits)                                                \
  X(uint64_t, sig_cache_misses)                                              \
  X(uint64_t, sig_cache_keys_prepared) /* Ed25519 key tables built */        \
  X(uint64_t, sig_cache_evictions)

struct AuditorMetrics {
  SDR_METRICS_STRUCT(AuditorMetrics, SDR_AUDITOR_METRICS)
};

// Calls f("field", value) for every field of metrics struct `m`, in list
// order; value is a uint64_t or a LatencyHistogram.
template <typename M, typename F>
void ForEachMetric(M& m, F&& f) {
  std::remove_const_t<M>::ForEachField(
      [&](const char* name, auto field) { f(name, m.*field); });
}

namespace metrics_internal {
inline void Add(uint64_t& dst, uint64_t src) { dst += src; }
inline void Add(LatencyHistogram& dst, const LatencyHistogram& src) {
  dst.Merge(src);
}
void AddJson(JsonValue& out, const char* name, uint64_t value);
void AddJson(JsonValue& out, const char* name, const LatencyHistogram& h);
}  // namespace metrics_internal

// Adds every counter of `src` into `dst` and merges its histograms.
template <typename M>
void Accumulate(M& dst, const M& src) {
  M::ForEachField([&](const char*, auto field) {
    metrics_internal::Add(dst.*field, src.*field);
  });
}

// The JSON export of one metrics struct: each counter under its field
// name; a histogram field x_us as x_p50_us and x_p99_us.
template <typename M>
JsonValue MetricsJson(const M& m) {
  JsonValue out = JsonValue::Object();
  ForEachMetric(m, [&](const char* name, const auto& value) {
    metrics_internal::AddJson(out, name, value);
  });
  return out;
}

// One node's entry in a per-role report array: MetricsJson plus the
// node's role index and node id.
template <typename M>
JsonValue NodeMetricsJson(int index, NodeId node, const M& m) {
  JsonValue out = MetricsJson(m);
  out["index"] = index;
  out["node"] = static_cast<int64_t>(node);
  return out;
}

}  // namespace sdr

#endif  // SDR_SRC_CORE_METRICS_H_
