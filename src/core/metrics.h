// Counters collected by the protocol roles. Each node owns its struct; the
// cluster harness aggregates them for tests and benchmarks.
#ifndef SDR_SRC_CORE_METRICS_H_
#define SDR_SRC_CORE_METRICS_H_

#include <cstdint>
#include <string>

#include "src/runtime/env.h"
#include "src/trace/histogram.h"

namespace sdr {

struct ClientMetrics {
  uint64_t reads_issued = 0;
  uint64_t reads_accepted = 0;
  uint64_t reads_rejected_stale = 0;     // token older than max_latency
  uint64_t reads_rejected_bad_sig = 0;   // pledge/token signature invalid
  uint64_t reads_rejected_hash = 0;      // result hash != pledge hash
  uint64_t reads_failed_declined = 0;    // slave said "not in sync"
  uint64_t reads_timed_out = 0;
  uint64_t retries = 0;
  uint64_t double_checks_sent = 0;
  uint64_t double_check_mismatches = 0;  // caught a lie red-handed
  uint64_t double_checks_unserved = 0;   // quota-throttled by the master
  uint64_t pledges_forwarded = 0;        // to the auditor
  uint64_t writes_issued = 0;
  uint64_t writes_committed = 0;
  uint64_t writes_rejected = 0;
  uint64_t reassignments = 0;
  uint64_t setups_completed = 0;
  // Delayed discovery: accepted reads later reported wrong by the auditor.
  uint64_t bad_read_notices = 0;
  // Fork-consistency checking (src/forkcheck/; all zero unless enabled).
  uint64_t vv_exchanges_sent = 0;
  uint64_t vv_exchanges_received = 0;
  uint64_t forks_detected = 0;
  uint64_t evidence_chains_emitted = 0;
  // Verify-dedup cache (mostly version tokens reused across reads).
  uint64_t sig_cache_hits = 0;
  uint64_t sig_cache_misses = 0;
  uint64_t sig_cache_keys_prepared = 0;  // Ed25519 key tables built
  // Keyspace sharding (src/core/shard.h; all zero unless num_shards > 1).
  uint64_t placement_cache_hits = 0;    // ops planned from the cached map
  uint64_t placement_cache_misses = 0;  // placement fetched from directory
  uint64_t multi_shard_reads = 0;       // parent reads fanned to >1 shard
  uint64_t multi_shard_writes = 0;      // parent writes split across shards
  uint64_t shard_subreads_issued = 0;
  uint64_t shard_subreads_accepted = 0;
  uint64_t shard_subwrites_committed = 0;
  LatencyHistogram read_latency_us;
  LatencyHistogram write_latency_us;
  // Age of the oldest per-shard token backing a merged multi-shard read —
  // the merged freshness bound (empty unless sharded reads fan out).
  LatencyHistogram merged_token_age_us;
};

struct MasterMetrics {
  uint64_t writes_received = 0;
  uint64_t writes_committed = 0;
  uint64_t writes_denied_acl = 0;
  uint64_t double_checks_served = 0;
  uint64_t double_checks_throttled = 0;
  uint64_t double_check_lies_found = 0;
  uint64_t accusations_received = 0;
  uint64_t accusations_confirmed = 0;
  uint64_t accusations_unfounded = 0;
  uint64_t slaves_excluded = 0;
  uint64_t clients_reassigned = 0;
  // Fork-consistency evidence (src/forkcheck/; zero unless enabled).
  uint64_t fork_evidence_received = 0;
  uint64_t fork_evidence_confirmed = 0;
  uint64_t state_updates_sent = 0;
  uint64_t keepalives_sent = 0;
  uint64_t slave_sets_adopted = 0;  // from crashed peers
  uint64_t work_units_executed = 0;
  // Group commit (all zero unless commit_batch > 1).
  uint64_t writes_batched = 0;       // writes that rode a bundle broadcast
  uint64_t batches_committed = 0;    // bundles applied on the commit path
  uint64_t state_update_batches_sent = 0;
  // Signatures produced on the commit/state-propagation path (tokens for
  // state updates + batch certificates; keepalives excluded). The per-write
  // signing cost group commit amortizes is commit_signatures /
  // writes_committed.
  uint64_t commit_signatures = 0;
  // Verify-dedup cache (accusation / incriminating-pledge checks).
  uint64_t sig_cache_hits = 0;
  uint64_t sig_cache_misses = 0;
  uint64_t sig_cache_keys_prepared = 0;  // Ed25519 key tables built
};

struct SlaveMetrics {
  uint64_t reads_served = 0;
  uint64_t reads_declined_stale = 0;  // honest slave out of sync
  uint64_t lies_told = 0;             // malicious behaviour bookkeeping
  // Lies whose pledge hash matches the corrupted result — the only kind
  // that can pass client-side checks and so the only kind the protocol
  // must (and can) eventually punish by exclusion.
  uint64_t consistent_lies_told = 0;
  // Fork-consistency bookkeeping (src/forkcheck/).
  uint64_t vvs_attached = 0;           // signed commitments on read replies
  // Reads answered from a forked view that is *behind* the applied
  // version, and real-store reads while such a divergent view is live.
  // Both non-zero means both client sets saw the divergence — the forked
  // chains then provably carry conflicting commitments.
  uint64_t equivocations_served = 0;
  uint64_t honest_serves_forked = 0;
  uint64_t stale_serves = 0;           // reads answered from a lagged view
  uint64_t state_updates_applied = 0;
  // Group commit (zero unless the master batches).
  uint64_t state_update_batches_received = 0;
  uint64_t keepalives_received = 0;
  uint64_t work_units_executed = 0;
  // Pledges whose signature was reused from an identical earlier pledge
  // body (SignMemo) instead of signed afresh. Host CPU only: the cost
  // model charges a signature for every read served either way.
  uint64_t pledge_signatures_reused = 0;
  // Verify-dedup cache (token adoption checks).
  uint64_t sig_cache_hits = 0;
  uint64_t sig_cache_misses = 0;
  uint64_t sig_cache_keys_prepared = 0;  // Ed25519 key tables built
};

struct AuditorMetrics {
  uint64_t pledges_received = 0;
  uint64_t pledges_audited = 0;
  uint64_t pledges_skipped_sampling = 0;
  // Pledge named a version already finalized and pruned — the audit-window
  // guarantee makes this a protocol violation or extreme delay.
  uint64_t pledges_version_pruned = 0;
  // Re-execution of the pledged query failed against the materialized store.
  uint64_t pledges_exec_failed = 0;
  // Pledges dropped for a bad signature: a forged version token at
  // admission, or a bad slave signature on a pledge whose hash mismatched
  // (checked only then, before accusing). A forged slave signature on a
  // pledge whose hash matches is audited and counted nowhere: it proves
  // nothing either way.
  uint64_t pledges_bad_signature = 0;
  uint64_t mismatches_found = 0;
  uint64_t accusations_sent = 0;
  // Cross-client fork reconciliation (src/forkcheck/; zero unless enabled).
  uint64_t vvs_reconciled = 0;
  uint64_t forks_detected = 0;
  uint64_t evidence_chains_emitted = 0;
  uint64_t bad_read_notices_sent = 0;
  uint64_t cache_hits = 0;
  uint64_t versions_finalized = 0;
  uint64_t work_units_executed = 0;
  // Admission dedup: pledges answered by comparing against a twin's
  // re-execution in the same batch (one exec, N comparisons).
  uint64_t pledges_deduped = 0;
  // Cross-version memo over the committed snapshot: hits reuse a prior
  // re-execution whose validity interval covers the pledged version;
  // misses are actual query executions.
  uint64_t reexec_memo_hits = 0;
  uint64_t reexec_memo_misses = 0;
  // Work items (snapshot builds + re-executions) handed to the worker
  // pool. Counts dispatched work, not thread occupancy, so it is
  // identical at any --audit_jobs value.
  uint64_t audit_workers_busy = 0;
  // Batched admission verification: version tokens, plus version vectors
  // with fork checking. Slave pledge signatures are not counted here.
  uint64_t verify_batches = 0;
  uint64_t sigs_batch_verified = 0;
  // Verify-dedup cache (version tokens shared across pledges).
  uint64_t sig_cache_hits = 0;
  uint64_t sig_cache_misses = 0;
  uint64_t sig_cache_keys_prepared = 0;  // Ed25519 key tables built
  uint64_t sig_cache_evictions = 0;
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_METRICS_H_
