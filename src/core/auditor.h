// The auditor (paper Section 3.4): the trusted server, elected from the
// master set, that has no slave set and whose "only duty is to check the
// validity of pledge packets, by re-executing the read request in the
// packet and comparing the secure hash of the result to the hash in the
// packet".
//
// It participates in the total-order broadcast like any master, so it sees
// every committed write and every slave-list gossip; but it applies writes
// lazily — it moves to content_version v+1 only after auditing every pledge
// for version v and after more than max_latency (plus slack) has passed
// since v+1 committed, so no client can still accept a read for the old
// version.
//
// Throughput advantages over slaves, each individually toggleable for the
// ablation benchmark (E4):
//   - it produces no signatures,
//   - it sends no answers back to clients,
//   - it caches results of repeated queries,
//   - it spreads work over idle periods (it is a background queue).
//
// Admission checks only the master's version token (and, with fork
// checking, the slave's version vector), batched through a verify cache
// where one token covers every pledge answered under it. The slave's
// signature over the pledge is checked only on a mismatch, before
// accusing: a pledge whose hash matches proves nothing whoever signed it,
// so in the steady state the auditor verifies no slave signatures.
//
// The audit pipeline processes admitted pledges in batches:
//
//   1. Admission dedup. Pledges in a batch are grouped by
//      (content_version, canonical query encoding); one group leader pays
//      for resolving the correct result, every follower is charged only a
//      hash comparison. Each pledge's result_sha1 is still compared
//      individually — a forged pledge hiding behind an honest twin is
//      caught by its own comparison, never skipped.
//   2. Cross-version memo. Correct result hashes are memoized per query
//      with a validity interval [first, last] of content versions. A
//      lookup at a version outside the interval tries to extend it by
//      proving (QueryAffectedBy) that every intervening committed write
//      batch misses the query's key footprint; committed versions are
//      immutable, so an extension is a proof, not a heuristic. Entries die
//      when their newest version finalizes.
//   3. Re-execution pool. Groups that must actually execute fan out over a
//      persistent WorkerPool (--audit_jobs lanes): snapshot
//      materialization and query execution run on worker threads against
//      the immutable oplog, each lane owning its QueryExecutor. Results
//      land in pre-sized per-group slots and are merged on the simulation
//      thread in deterministic batch order, so verdicts, metrics, and
//      traces are byte-identical at any lane count. The pool threads never
//      touch the Env: simulated service times are charged per pledge on
//      the ordinary ServiceQueue exactly as before, so the simulated
//      domain cannot observe the host-side parallelism.
#ifndef SDR_SRC_CORE_AUDITOR_H_
#define SDR_SRC_CORE_AUDITOR_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/broadcast/total_order.h"
#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/core/metrics.h"
#include "src/core/service_queue.h"
#include "src/runtime/env.h"
#include "src/store/executor.h"
#include "src/store/oplog.h"
#include "src/util/parallel.h"

namespace sdr {

class Auditor : public Node {
 public:
  struct Options {
    ProtocolParams params;
    CostModel cost;
    KeyPair key_pair;
    std::vector<NodeId> group;  // total-order group (masters + this node)
    std::map<NodeId, Bytes> master_keys;
    // Content-signed master certificates, embedded in emitted fork-evidence
    // chains so they verify offline (only used with fork_check_enabled).
    std::vector<Certificate> master_certs;
    uint64_t snapshot_interval = 16;
    TotalOrderBroadcast::Config broadcast;
    // Ablation toggles (all true = the paper's auditor). Disabling the
    // result cache also disables admission dedup and the cross-version
    // memo: every pledge pays full re-execution.
    bool use_result_cache = true;
    // Host worker lanes for the re-execution pool. 1 = no threads, fully
    // inline; any value produces byte-identical outputs (see above).
    int audit_jobs = 1;
  };

  explicit Auditor(Options options);

  void Start() override;
  void HandleMessage(NodeId from, const Payload& payload) override;

  // Installs initial content at version 0 (must match the masters').
  void SetBaseContent(const DocumentStore& base) {
    oplog_.SetBaseSnapshot(base);
  }

  // Pausing stops audit work and version finalization (incoming pledges
  // are parked); resuming drains the parked backlog. Chaos scenarios use
  // this to stretch the delayed-discovery window without crashing the
  // auditor out of the broadcast group.
  void SetPaused(bool paused);
  bool paused() const { return paused_; }

  const OpLog& oplog() const { return oplog_; }
  const AuditorMetrics& metrics() const {
    metrics_.sig_cache_hits = verify_cache_.stats().hits;
    metrics_.sig_cache_misses = verify_cache_.stats().misses;
    metrics_.sig_cache_keys_prepared = verify_cache_.stats().keys_prepared;
    metrics_.sig_cache_evictions = verify_cache_.stats().evictions;
    return metrics_;
  }
  // Invoked on every fork-evidence chain assembled here (cross-client
  // reconciliation); the harness collects them for offline verification.
  std::function<void(const EvidenceChain&)> on_evidence;

  uint64_t head_version() const { return oplog_.head_version(); }
  uint64_t audited_version() const { return audited_version_; }
  // Audits accepted but not yet completed (queued on the simulated CPU),
  // plus pledges parked for not-yet-committed versions or awaiting the
  // batched token verification.
  size_t backlog() const {
    return queue_->depth() + future_.size() + pending_verify_.size();
  }
  const ServiceQueue& service_queue() const { return *queue_; }

  // Current lag between the committed head and the fully audited version.
  uint64_t version_lag() const {
    return oplog_.head_version() - audited_version_;
  }

 private:
  // A pledge moving through the audit pipeline, with the client that
  // submitted it (for delayed-discovery rollback notices) and the causal
  // trace id it arrived on (0 when untraced).
  struct PendingPledge {
    Pledge pledge;
    NodeId submitter = kInvalidNode;
    uint64_t trace_id = 0;
    // The slave's version-vector commitment piggybacked on the submission
    // (absent unless fork checking is enabled).
    std::optional<VersionVector> vv;
  };

  // A memoized correct-result hash, valid for every content version in
  // [first, last] (proven write-disjoint; see MemoLookup).
  struct MemoEntry {
    uint64_t first = 0;
    uint64_t last = 0;
    Bytes sha1;
  };

  void OnDelivered(uint64_t seq, NodeId origin, const Bytes& payload);
  void PumpCommitQueue();
  void HandleAuditSubmit(NodeId from, BytesView body);
  void GossipAndFinalizeTick();
  void EnqueueForVerify(PendingPledge item);
  // Verifies the buffered pledges' tokens (and version vectors) and routes
  // the survivors to future_ or AuditBatch.
  void FlushVerifyBatch();
  // Cross-client fork reconciliation: feed a batch-verified version vector
  // to the detector; divergent chain heads for one (slave, version) become
  // an evidence chain sent to the slave's owning master.
  void ReconcileVv(const VersionVector& vv, const Pledge& pledge,
                   uint64_t trace_id);
  // Audits a batch of token-verified pledges at committed versions:
  // dedup -> memo -> pooled re-execution -> deterministic merge -> one
  // ServiceQueue entry per pledge (the comparison closure).
  void AuditBatch(std::vector<PendingPledge> ready);
  // The memo entry covering (query, version), extending an adjacent
  // entry's validity interval when the intervening batches provably miss
  // the query. nullptr = must re-execute.
  const MemoEntry* MemoLookup(const Bytes& query_key, const Query& q,
                              uint64_t version);
  void MemoInsert(const Bytes& query_key, uint64_t version, Bytes sha1);
  // The re-execution pool, created on first use (never for jobs <= 1).
  WorkerPool* EnsurePool();
  // Runs fn(lane, index) over [0, n): on the pool when enabled, inline
  // otherwise. Callers merge results on the calling thread in index order.
  void PoolRun(int n, const std::function<void(int, int)>& fn);
  void TryFinalizeVersions();
  void RaiseAccusation(const Pledge& pledge, uint64_t trace_id);
  void NotifyVictim(NodeId client, const Pledge& pledge,
                    const Bytes& correct_sha1, uint64_t trace_id);

  Options options_;
  Signer signer_;
  Rng rng_;
  std::unique_ptr<TotalOrderBroadcast> broadcast_;
  std::unique_ptr<ServiceQueue> queue_;

  OpLog oplog_;
  // One executor per pool lane (index 0 = the simulation thread), so the
  // regex cache needs no locking. Inside a pool region each lane may only
  // touch its own slot — sdrlint R6 enforces the [lane] subscript.
  // sdrlint:lane_confined
  std::vector<std::unique_ptr<QueryExecutor>> lane_executors_;
  std::unique_ptr<WorkerPool> pool_;
  std::map<uint64_t, SimTime> commit_times_;  // version -> delivery time

  // Versions strictly below audited_version_ are closed: every pledge for
  // them has been audited and no client can accept a read for them any
  // more. audited_version_ itself is the oldest possibly-active version.
  uint64_t audited_version_ = 0;
  // Pledges for versions we have not yet seen committed.
  std::deque<PendingPledge> future_;
  // Pledges parked while paused, drained on resume.
  std::deque<PendingPledge> paused_backlog_;
  bool paused_ = false;
  // Admitted pledges awaiting the batched token verification. Counted
  // in in_flight_ so finalization cannot overtake them; flushed at
  // audit_verify_batch_size or after audit_verify_batch_window.
  std::deque<PendingPledge> pending_verify_;
  bool verify_timer_armed_ = false;
  // Deduplicates signature verifications — chiefly the version token, which
  // is shared by every pledge answered under it. Slave pledge signatures
  // reach it only on the mismatch path.
  VerifyCache verify_cache_;
  // Count of in-flight audits on the service queue for each version — a
  // version cannot finalize while its audits are in flight.
  std::map<uint64_t, uint64_t> in_flight_;
  // Delivered writes waiting for the paced commit. Masters commit at most
  // one write per max_latency (PumpCommitQueue); the auditor must mirror
  // that pacing or its version numbers and commit times run ahead of what
  // slaves actually serve, and finalization would prune versions whose
  // pledges are still arriving.
  // One entry per commit slot: a single batch on the paper's path, all
  // batches of a group-commit bundle otherwise (they share the slot, so
  // the auditor's versions and commit times track the masters' exactly).
  std::deque<std::vector<WriteBatch>> commit_queue_;
  SimTime last_commit_time_ = 0;
  bool commit_timer_armed_ = false;

  // Cross-version memo: canonical query encoding -> validity-interval
  // entries (newest last, at most two per query — current interval plus
  // the one a racing in-flight version may still need).
  std::map<Bytes, std::vector<MemoEntry>> memo_;

  std::map<NodeId, Certificate> known_slave_certs_;
  std::map<NodeId, NodeId> slave_owner_;

  // Divergence detector over every version vector submitted by any client
  // (the auditor sees all sets of a forked slave, so it detects forks even
  // when client gossip is partitioned or disabled).
  ForkDetector fork_detector_;

  mutable AuditorMetrics metrics_;
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_AUDITOR_H_
