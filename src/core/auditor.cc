#include "src/core/auditor.h"

#include <algorithm>
#include <utility>

#include "src/crypto/sha1.h"
#include "src/trace/trace.h"
#include "src/util/logging.h"

namespace sdr {

namespace {

// How far a memo validity interval may be extended in one lookup. The walk
// stops at the first interfering batch anyway; the cap only bounds the
// pathological case of a very old entry and a write stream that never
// touches the query's range.
constexpr uint64_t kMemoWalkLimit = 64;

}  // namespace

Auditor::Auditor(Options options)
    : options_(std::move(options)),
      signer_(options_.key_pair),
      rng_(1),
      oplog_(options_.snapshot_interval),
      verify_cache_(options_.params.audit_verify_cache_entries) {
  int lanes = std::max(1, options_.audit_jobs);
  lane_executors_.reserve(static_cast<size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    lane_executors_.push_back(std::make_unique<QueryExecutor>(
        /*cache_regex=*/options_.use_result_cache));
  }
}

WorkerPool* Auditor::EnsurePool() {
  if (options_.audit_jobs <= 1) {
    return nullptr;
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(options_.audit_jobs);
  }
  return pool_.get();
}

void Auditor::PoolRun(int n, const std::function<void(int, int)>& fn) {
  if (WorkerPool* pool = EnsurePool()) {
    pool->Run(n, fn);
    return;
  }
  for (int i = 0; i < n; ++i) {
    fn(0, i);
  }
}

void Auditor::Start() {
  queue_ = std::make_unique<ServiceQueue>(env(), options_.cost.auditor_speed);
  queue_->BindTrace(TraceRole::kAuditor, id());
  rng_ = env()->rng().Fork();

  TotalOrderBroadcast::Config bc = options_.broadcast;
  bc.group = options_.group;
  broadcast_ = std::make_unique<TotalOrderBroadcast>(
      env(), this, bc,
      [this](NodeId to, const Bytes& payload) {
        env()->Send(to,
                    WithType(MsgType::kBroadcastEnvelope, payload));
      },
      [this](uint64_t seq, NodeId origin, const Bytes& payload) {
        OnDelivered(seq, origin, payload);
      });
  broadcast_->Start();

  // Liveness gossip (empty slave set — the auditor has none) and periodic
  // finalization checks.
  GossipAndFinalizeTick();
}

void Auditor::GossipAndFinalizeTick() {
  env()->ScheduleAfter(options_.params.gossip_period,
                       [this] { GossipAndFinalizeTick(); });
  if (!up()) {
    return;
  }
  TobGossip gossip;
  gossip.master = id();
  broadcast_->Broadcast(EncodeTyped(TobPayloadType::kGossip, gossip));
  if (!paused_) {
    TryFinalizeVersions();
  }
}

void Auditor::SetPaused(bool paused) {
  if (paused_ == paused) {
    return;
  }
  paused_ = paused;
  if (paused_) {
    return;
  }
  // Resume: push the parked pledges through the normal admission path.
  std::deque<PendingPledge> backlog = std::move(paused_backlog_);
  paused_backlog_.clear();
  for (PendingPledge& item : backlog) {
    EnqueueForVerify(std::move(item));
  }
  FlushVerifyBatch();
  TryFinalizeVersions();
}

void Auditor::HandleMessage(NodeId from, const Payload& payload) {
  auto type = PeekType(payload);
  if (!type.ok()) {
    return;
  }
  BytesView body = BytesView(payload).substr(1);
  switch (*type) {
    case MsgType::kAuditSubmit:
      HandleAuditSubmit(from, body);
      break;
    case MsgType::kBroadcastEnvelope:
      broadcast_->OnMessage(from, body);
      break;
    // Not addressed to the auditor; ignored by design (R3 wants them named
    // so a new message type forces a decision here).
    case MsgType::kDirectoryLookup:
    case MsgType::kDirectoryLookupReply:
    case MsgType::kClientHello:
    case MsgType::kClientHelloReply:
    case MsgType::kReadRequest:
    case MsgType::kReadReply:
    case MsgType::kWriteRequest:
    case MsgType::kWriteReply:
    case MsgType::kDoubleCheckRequest:
    case MsgType::kDoubleCheckReply:
    case MsgType::kAccusation:
    case MsgType::kReassignment:
    case MsgType::kKeepAlive:
    case MsgType::kSlaveAck:
    case MsgType::kBadReadNotice:
    case MsgType::kVvExchange:
    case MsgType::kForkEvidence:
    case MsgType::kPlacementQuery:
    case MsgType::kPlacementReply:
    case MsgType::kStateUpdateBatch:
      break;
  }
}

void Auditor::OnDelivered(uint64_t /*seq*/, NodeId /*origin*/,
                          const Bytes& payload) {
  auto type = PeekTobType(payload);
  if (!type.ok()) {
    return;
  }
  BytesView body = BytesView(payload).substr(1);
  switch (*type) {
    case TobPayloadType::kWriteBundle: {
      auto bundle = TobWriteBundle::Decode(body);
      if (!bundle.ok() || bundle->writes.empty()) {
        return;
      }
      std::vector<WriteBatch> unit;
      unit.reserve(bundle->writes.size());
      for (TobWrite& write : bundle->writes) {
        unit.push_back(std::move(write.batch));
      }
      commit_queue_.push_back(std::move(unit));
      PumpCommitQueue();
      break;
    }
    case TobPayloadType::kGossip: {
      auto gossip = TobGossip::Decode(body);
      if (!gossip.ok()) {
        return;
      }
      for (const Certificate& cert : gossip->slave_certs) {
        known_slave_certs_[cert.subject] = cert;
        slave_owner_[cert.subject] = gossip->master;
      }
      break;
    }
  }
}

void Auditor::PumpCommitQueue() {
  if (commit_queue_.empty() || commit_timer_armed_) {
    return;
  }
  SimTime earliest = last_commit_time_ + options_.params.max_latency;
  if (env()->Now() >= earliest) {
    for (const WriteBatch& batch : commit_queue_.front()) {
      uint64_t version = oplog_.head_version() + 1;
      oplog_.Append(version, batch);
      commit_times_[version] = env()->Now();
    }
    commit_queue_.pop_front();
    last_commit_time_ = env()->Now();
    // Pledges that were waiting for this version can now be audited.
    std::deque<PendingPledge> still_future;
    std::vector<PendingPledge> ready;
    while (!future_.empty()) {
      PendingPledge item = std::move(future_.front());
      future_.pop_front();
      if (item.pledge.token.content_version <= oplog_.head_version()) {
        ready.push_back(std::move(item));
      } else {
        still_future.push_back(std::move(item));
      }
    }
    future_ = std::move(still_future);
    AuditBatch(std::move(ready));
    PumpCommitQueue();
    return;
  }
  commit_timer_armed_ = true;
  env()->ScheduleAt(earliest, [this] {
    commit_timer_armed_ = false;
    PumpCommitQueue();
  });
}

void Auditor::HandleAuditSubmit(NodeId from, BytesView body) {
  auto msg = AuditSubmit::Decode(body);
  if (!msg.ok()) {
    return;
  }
  ++metrics_.pledges_received;
  TraceSink* t = env()->trace();
  if (t != nullptr) {
    t->Instant(TraceRole::kAuditor, id(), "audit.recv", msg->trace_id);
  }
  if (options_.params.audit_sample_fraction < 1.0 &&
      !rng_.NextBool(options_.params.audit_sample_fraction)) {
    ++metrics_.pledges_skipped_sampling;
    return;
  }
  if (paused_) {
    if (t != nullptr) {
      t->Instant(TraceRole::kAuditor, id(), "audit.park_paused",
                 msg->trace_id);
    }
    paused_backlog_.push_back(PendingPledge{std::move(msg->pledge), from,
                                            msg->trace_id,
                                            std::move(msg->vv)});
    return;
  }
  EnqueueForVerify(PendingPledge{std::move(msg->pledge), from, msg->trace_id,
                                 std::move(msg->vv)});
}

// Admission stage: buffer the pledge for batched signature verification.
// The pledge counts as in flight from here, so version finalization can
// never overtake a buffered pledge.
void Auditor::EnqueueForVerify(PendingPledge item) {
  ++in_flight_[item.pledge.token.content_version];
  pending_verify_.push_back(std::move(item));
  if (pending_verify_.size() >=
      static_cast<size_t>(options_.params.audit_verify_batch_size)) {
    FlushVerifyBatch();
    return;
  }
  if (!verify_timer_armed_) {
    verify_timer_armed_ = true;
    env()->ScheduleAfter(options_.params.audit_verify_batch_window, [this] {
      verify_timer_armed_ = false;
      FlushVerifyBatch();
    });
  }
}

// Admission verifies what the audit bookkeeping rests on: the token, whose
// version drives future_ parking, in_flight_ and finalization, and with
// fork checking the version vector. The slave's signature waits for the
// mismatch path in AuditBatch (see the class comment). Tokens from a
// master whose key we lack pass through unverified.
void Auditor::FlushVerifyBatch() {
  if (pending_verify_.empty()) {
    return;
  }
  std::deque<PendingPledge> batch = std::move(pending_verify_);
  pending_verify_.clear();

  // Item indices per pledge: the token signature, and an optional version
  // vector signature.
  std::vector<VerifyItem> items;
  std::vector<int> token_item(batch.size(), -1);
  std::vector<int> vv_item(batch.size(), -1);
  for (size_t i = 0; i < batch.size(); ++i) {
    const Pledge& pledge = batch[i].pledge;
    auto master_key = options_.master_keys.find(pledge.token.master);
    if (master_key != options_.master_keys.end()) {
      token_item[i] = static_cast<int>(items.size());
      items.push_back({master_key->second, pledge.token.SignedBody(),
                       pledge.token.signature});
    }
    // The vector must name the pledging slave and the pledged version;
    // anything else is ignored (a lone bogus vector proves nothing).
    auto cert = known_slave_certs_.find(pledge.slave);
    if (options_.params.fork_check_enabled && batch[i].vv.has_value() &&
        cert != known_slave_certs_.end() &&
        batch[i].vv->slave == pledge.slave &&
        batch[i].vv->content_version == pledge.token.content_version) {
      vv_item[i] = static_cast<int>(items.size());
      items.push_back({cert->second.subject_public_key,
                       batch[i].vv->SignedBody(), batch[i].vv->signature});
    }
  }
  std::vector<bool> ok;
  if (!items.empty()) {
    ++metrics_.verify_batches;
    metrics_.sigs_batch_verified += items.size();
    ok = verify_cache_.VerifyBatch(options_.params.scheme, items,
                                   EnsurePool());
  }

  TraceSink* t = env()->trace();
  std::vector<PendingPledge> ready;
  ready.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    PendingPledge& item = batch[i];
    --in_flight_[item.pledge.token.content_version];
    if (token_item[i] >= 0 && !ok[token_item[i]]) {
      // A forged token: its version is unproven, so audit nothing.
      ++metrics_.pledges_bad_signature;
      if (t != nullptr) {
        t->Instant(TraceRole::kAuditor, id(), "audit.bad_sig", item.trace_id);
      }
      continue;
    }
    if (vv_item[i] >= 0 && ok[vv_item[i]]) {
      ReconcileVv(*item.vv, item.pledge, item.trace_id);
    }
    if (item.pledge.token.content_version > oplog_.head_version()) {
      // The slave answered at a version whose commit has not reached us yet.
      if (t != nullptr) {
        t->Instant(TraceRole::kAuditor, id(), "audit.future", item.trace_id);
      }
      future_.push_back(std::move(item));
      continue;
    }
    ready.push_back(std::move(item));
  }
  AuditBatch(std::move(ready));
}

void Auditor::ReconcileVv(const VersionVector& vv, const Pledge& pledge,
                          uint64_t trace_id) {
  auto cert = known_slave_certs_.find(pledge.slave);
  if (cert == known_slave_certs_.end()) {
    return;
  }
  ++metrics_.vvs_reconciled;
  AttestedVv avv;
  avv.vv = vv;
  avv.token = pledge.token;
  avv.slave_cert = cert->second;
  auto conflict = fork_detector_.Observe(avv);
  if (!conflict.has_value()) {
    return;
  }
  ++metrics_.forks_detected;
  if (TraceSink* t = env()->trace()) {
    t->Instant(TraceRole::kAuditor, id(), "fork.detect", trace_id,
               static_cast<int64_t>(vv.slave));
  }
  EvidenceChain chain = MakeEvidenceChain(conflict->first, conflict->second,
                                          options_.master_certs);
  ++metrics_.evidence_chains_emitted;
  if (on_evidence) {
    on_evidence(chain);
  }
  auto owner = slave_owner_.find(vv.slave);
  if (owner == slave_owner_.end()) {
    return;
  }
  ForkEvidence msg;
  msg.trace_id = trace_id;
  msg.chain = std::move(chain);
  env()->Send(owner->second, EncodeTyped(MsgType::kForkEvidence, msg));
}

const Auditor::MemoEntry* Auditor::MemoLookup(const Bytes& query_key,
                                              const Query& q,
                                              uint64_t version) {
  auto it = memo_.find(query_key);
  if (it == memo_.end()) {
    return nullptr;
  }
  for (MemoEntry& m : it->second) {
    if (version >= m.first && version <= m.last) {
      return &m;
    }
  }
  // Not covered: try to extend an entry's interval to `version` by proving
  // every batch between them misses the query's key footprint. The store
  // at version v differs from v-1 exactly by batch v, so disjointness over
  // the whole gap means the memoized result holds at `version` too. A
  // pruned batch (BatchFor == nullptr) breaks the proof and the walk.
  for (MemoEntry& m : it->second) {
    if (version > m.last && version - m.last <= kMemoWalkLimit) {
      bool clean = true;
      for (uint64_t v = m.last + 1; v <= version; ++v) {
        const WriteBatch* batch = oplog_.BatchFor(v);
        if (batch == nullptr || QueryAffectedBy(q, *batch)) {
          clean = false;
          break;
        }
      }
      if (clean) {
        m.last = version;
        return &m;
      }
    } else if (version < m.first && m.first - version <= kMemoWalkLimit) {
      bool clean = true;
      for (uint64_t v = version + 1; v <= m.first; ++v) {
        const WriteBatch* batch = oplog_.BatchFor(v);
        if (batch == nullptr || QueryAffectedBy(q, *batch)) {
          clean = false;
          break;
        }
      }
      if (clean) {
        m.first = version;
        return &m;
      }
    }
  }
  return nullptr;
}

void Auditor::MemoInsert(const Bytes& query_key, uint64_t version,
                         Bytes sha1) {
  std::vector<MemoEntry>& entries = memo_[query_key];
  entries.push_back(MemoEntry{version, version, std::move(sha1)});
  // Keep the newest two intervals: the current one plus the previous, which
  // straggler pledges for a not-yet-finalized older version may still hit.
  if (entries.size() > 2) {
    entries.erase(entries.begin());
  }
}

// The audit engine. Stages (see the class comment):
//   dedup: group pledges by (version, query); the first pledge of a group
//     leads, the rest ride along as comparisons.
//   memo: groups covered by a memoized validity interval skip execution.
//   snapshots: distinct versions still needed are materialized once, on
//     the pool, and adopted into the oplog's shared-snapshot cache.
//   execute: remaining groups run on the pool, one executor per lane,
//     writing into per-group slots.
//   merge + dispatch: on the simulation thread, in batch order — every
//     observable effect below this point is independent of lane count.
void Auditor::AuditBatch(std::vector<PendingPledge> ready) {
  if (ready.empty()) {
    return;
  }
  TraceSink* t = env()->trace();
  const size_t n = ready.size();
  for (const PendingPledge& item : ready) {
    ++in_flight_[item.pledge.token.content_version];
  }

  struct Group {
    enum class How : uint8_t { kUnresolved, kMemo, kExec, kPruned, kFailed };
    uint64_t version = 0;
    Bytes query_key;
    size_t leader = 0;  // index into `ready` of the first group member
    How how = How::kUnresolved;
    Bytes sha1;               // correct result hash (kMemo / kExec)
    uint64_t cost = 0;        // work units (kExec)
    uint32_t result_bytes = 0;
  };
  std::vector<Group> groups;
  std::vector<size_t> group_of(n, 0);
  std::map<std::pair<uint64_t, Bytes>, size_t> group_index;
  for (size_t i = 0; i < n; ++i) {
    const Pledge& pledge = ready[i].pledge;
    Bytes query_key = pledge.query.Encode();
    if (options_.use_result_cache) {
      auto [pos, inserted] = group_index.try_emplace(
          std::make_pair(pledge.token.content_version, query_key),
          groups.size());
      if (!inserted) {
        group_of[i] = pos->second;
        continue;
      }
    }
    group_of[i] = groups.size();
    groups.emplace_back();
    groups.back().version = pledge.token.content_version;
    groups.back().query_key = std::move(query_key);
    groups.back().leader = i;
  }

  // Memo stage.
  std::vector<size_t> exec_groups;
  for (size_t g = 0; g < groups.size(); ++g) {
    Group& grp = groups[g];
    if (options_.use_result_cache) {
      const MemoEntry* memo = MemoLookup(
          grp.query_key, ready[grp.leader].pledge.query, grp.version);
      if (memo != nullptr) {
        grp.how = Group::How::kMemo;
        grp.sha1 = memo->sha1;
        ++metrics_.reexec_memo_hits;
        if (t != nullptr) {
          t->Instant(TraceRole::kAuditor, id(), "audit.memo_hit",
                     ready[grp.leader].trace_id);
        }
        continue;
      }
    }
    exec_groups.push_back(g);
  }

  // Snapshot stage: materialize the distinct versions the executing groups
  // need, in parallel, against the immutable log; adopt on this thread.
  if (!exec_groups.empty()) {
    std::vector<uint64_t> need;
    for (size_t g : exec_groups) {
      need.push_back(groups[g].version);
    }
    std::sort(need.begin(), need.end());
    need.erase(std::unique(need.begin(), need.end()), need.end());
    need.erase(std::remove_if(need.begin(), need.end(),
                              [this](uint64_t v) {
                                return oplog_.CachedSnapshot(v) != nullptr;
                              }),
               need.end());
    if (!need.empty()) {
      metrics_.audit_workers_busy += need.size();
      std::vector<std::unique_ptr<DocumentStore>> built(need.size());
      PoolRun(static_cast<int>(need.size()), [&](int, int i) {
        auto store = oplog_.MaterializeAt(need[i]);
        if (store.ok()) {
          built[i] =
              std::make_unique<DocumentStore>(std::move(store).value());
        }
      });
      for (size_t i = 0; i < need.size(); ++i) {
        if (built[i] != nullptr) {
          oplog_.AdoptSnapshot(need[i], std::move(*built[i]));
        }
      }
    }
  }

  // Execute stage.
  struct ExecItem {
    size_t group;
    std::shared_ptr<const DocumentStore> snapshot;
  };
  struct ExecSlot {
    bool ok = false;
    Bytes sha1;
    uint64_t cost = 0;
    uint32_t result_bytes = 0;
  };
  std::vector<ExecItem> exec_list;
  for (size_t g : exec_groups) {
    auto snapshot = oplog_.CachedSnapshot(groups[g].version);
    if (snapshot == nullptr) {
      // Version pruned (pledge arrived long after finalization) — the
      // audit window guarantee makes this a protocol violation by the
      // client or extreme delay; skip the whole group.
      groups[g].how = Group::How::kPruned;
      continue;
    }
    exec_list.push_back(ExecItem{g, std::move(snapshot)});
  }
  if (!exec_list.empty()) {
    metrics_.audit_workers_busy += exec_list.size();
    uint64_t lead_trace = ready[groups[exec_list.front().group].leader].trace_id;
    if (t != nullptr) {
      t->SpanBegin(TraceRole::kAuditor, id(), "audit.reexec", lead_trace,
                   static_cast<int64_t>(exec_list.size()));
    }
    std::vector<ExecSlot> slots(exec_list.size());
    PoolRun(static_cast<int>(exec_list.size()), [&](int lane, int i) {
      const ExecItem& item = exec_list[i];
      auto outcome = lane_executors_[lane]->Execute(
          *item.snapshot, ready[groups[item.group].leader].pledge.query);
      if (!outcome.ok()) {
        return;  // slot stays !ok -> kFailed in the merge
      }
      Bytes encoded = outcome->result.Encode();
      slots[i].sha1 = Sha1::Hash(encoded);
      slots[i].cost = outcome->cost;
      slots[i].result_bytes = static_cast<uint32_t>(encoded.size());
      slots[i].ok = true;
    });
    if (t != nullptr) {
      t->SpanEnd(TraceRole::kAuditor, id(), "audit.reexec", lead_trace,
                 static_cast<int64_t>(exec_list.size()));
    }
    // Deterministic merge, in batch order.
    for (size_t i = 0; i < exec_list.size(); ++i) {
      Group& grp = groups[exec_list[i].group];
      if (!slots[i].ok) {
        grp.how = Group::How::kFailed;
        continue;
      }
      grp.how = Group::How::kExec;
      grp.sha1 = std::move(slots[i].sha1);
      grp.cost = slots[i].cost;
      grp.result_bytes = slots[i].result_bytes;
      ++metrics_.reexec_memo_misses;
      metrics_.work_units_executed += grp.cost;
      if (options_.use_result_cache) {
        MemoInsert(grp.query_key, grp.version, grp.sha1);
      }
    }
  }

  // Dispatch stage: one simulated-CPU entry per pledge, in arrival order.
  // The group leader of an executed group is charged the execution time;
  // everyone else (dedup followers, memo hits) is charged a cache hit.
  // Every pledge's own result_sha1 is compared in its closure — a forged
  // pledge deduped against an honest twin still mismatches and is caught.
  for (size_t i = 0; i < n; ++i) {
    PendingPledge& item = ready[i];
    const Group& grp = groups[group_of[i]];
    uint64_t version = item.pledge.token.content_version;
    if (grp.how == Group::How::kPruned) {
      ++metrics_.pledges_version_pruned;
      if (t != nullptr) {
        t->Instant(TraceRole::kAuditor, id(), "audit.pruned", item.trace_id);
      }
      --in_flight_[version];
      continue;
    }
    if (grp.how == Group::How::kFailed) {
      ++metrics_.pledges_exec_failed;
      --in_flight_[version];
      continue;
    }
    bool leads = grp.leader == i;
    bool pays_execution = leads && grp.how == Group::How::kExec;
    SimTime service_time =
        pays_execution
            ? options_.cost.ExecuteTime(grp.cost, grp.result_bytes)
            : static_cast<SimTime>(options_.cost.audit_cache_hit_us);
    if (!leads) {
      ++metrics_.pledges_deduped;
      ++metrics_.cache_hits;
      if (t != nullptr) {
        t->Instant(TraceRole::kAuditor, id(), "audit.dedup_hit",
                   item.trace_id);
      }
    } else if (grp.how == Group::How::kMemo) {
      ++metrics_.cache_hits;
    }
    if (t != nullptr) {
      t->SpanBegin(TraceRole::kAuditor, id(), "audit", item.trace_id,
                   pays_execution ? 0 : 1);
    }
    Bytes correct_hash = grp.sha1;
    NodeId submitter = item.submitter;
    uint64_t trace_id = item.trace_id;
    queue_->Enqueue(service_time, [this, pledge = std::move(item.pledge),
                                   correct_hash = std::move(correct_hash),
                                   version, submitter, trace_id] {
      ++metrics_.pledges_audited;
      --in_flight_[version];
      bool mismatch = correct_hash != pledge.result_sha1;
      TraceSink* sink = env()->trace();
      if (sink != nullptr) {
        sink->SpanEnd(TraceRole::kAuditor, id(), "audit", trace_id,
                      mismatch ? 1 : 0);
      }
      if (mismatch) {
        // Check the slave's signature before accusing, the only place it
        // is checked: an unsigned "pledge" proves nothing and forwarding
        // it would let clients frame slaves.
        auto cert = known_slave_certs_.find(pledge.slave);
        if (cert == known_slave_certs_.end() ||
            !VerifyPledgeSignature(options_.params.scheme,
                                   cert->second.subject_public_key, pledge,
                                   &verify_cache_)) {
          ++metrics_.pledges_bad_signature;
          if (sink != nullptr) {
            sink->Instant(TraceRole::kAuditor, id(), "audit.bad_sig",
                          trace_id);
          }
        } else {
          ++metrics_.mismatches_found;
          if (sink != nullptr) {
            sink->Instant(TraceRole::kAuditor, id(), "audit.mismatch",
                          trace_id, static_cast<int64_t>(pledge.slave));
            sink->Hist(TraceRole::kAuditor, id(), "detection_latency_us")
                .Record(env()->Now() - pledge.token.timestamp);
          }
          RaiseAccusation(pledge, trace_id);
          NotifyVictim(submitter, pledge, correct_hash, trace_id);
        }
      }
      TryFinalizeVersions();
    });
  }
}

void Auditor::RaiseAccusation(const Pledge& pledge, uint64_t trace_id) {
  auto owner = slave_owner_.find(pledge.slave);
  if (owner == slave_owner_.end()) {
    return;
  }
  ++metrics_.accusations_sent;
  if (TraceSink* t = env()->trace()) {
    t->Instant(TraceRole::kAuditor, id(), "accuse", trace_id,
               static_cast<int64_t>(pledge.slave));
  }
  Accusation msg;
  msg.trace_id = trace_id;
  msg.pledge = pledge;
  env()->Send(owner->second, EncodeTyped(MsgType::kAccusation, msg));
}

void Auditor::NotifyVictim(NodeId client, const Pledge& pledge,
                           const Bytes& correct_sha1, uint64_t trace_id) {
  // Delayed discovery: this client already accepted the bad answer; tell
  // it so the application can roll back (Section 3.5).
  ++metrics_.bad_read_notices_sent;
  if (TraceSink* t = env()->trace()) {
    t->Instant(TraceRole::kAuditor, id(), "notify_victim", trace_id,
               static_cast<int64_t>(client));
  }
  BadReadNotice notice;
  notice.trace_id = trace_id;
  notice.pledge = pledge;
  notice.correct_sha1 = correct_sha1;
  env()->Send(client, EncodeTyped(MsgType::kBadReadNotice, notice));
}

void Auditor::TryFinalizeVersions() {
  if (paused_) {
    return;  // a paused auditor must not close versions it has not audited
  }
  // Finalize version v (move to v+1) once:
  //   - v+1 has committed,
  //   - more than max_latency + slack has passed since that commit (no
  //     client will accept a version-v read any more, and its pledge has
  //     had time to arrive),
  //   - no audit for any version <= v is still in flight.
  for (;;) {
    uint64_t next = audited_version_ + 1;
    auto commit = commit_times_.find(next);
    if (commit == commit_times_.end()) {
      return;
    }
    if (env()->Now() <=
        commit->second + options_.params.max_latency +
            options_.params.audit_slack) {
      return;
    }
    for (auto it = in_flight_.begin();
         it != in_flight_.end() && it->first < next; ++it) {
      if (it->second > 0) {
        return;
      }
    }
    // Every pledge for versions < next has been audited (queued audits are
    // counted in in_flight_ from acceptance), so those versions are closed.
    if (TraceSink* t = env()->trace()) {
      t->Hist(TraceRole::kAuditor, id(), "audit_lag_us")
          .Record(env()->Now() - commit->second);
    }
    audited_version_ = next;
    ++metrics_.versions_finalized;
    // Reclaim memory for closed versions. The prune floor trails the
    // audited frontier by the memo walk limit: a memo entry last proven at
    // a finalized version can still be extended to a live one, but only
    // while the batches in between exist to prove non-interference over
    // the gap. Pruning right at the frontier would restart the memo cold
    // on every finalization.
    uint64_t floor = audited_version_ > kMemoWalkLimit
                         ? audited_version_ - kMemoWalkLimit
                         : 0;
    commit_times_.erase(commit_times_.begin(),
                        commit_times_.lower_bound(audited_version_));
    for (auto it = memo_.begin(); it != memo_.end();) {
      std::vector<MemoEntry>& entries = it->second;
      entries.erase(std::remove_if(entries.begin(), entries.end(),
                                   [floor](const MemoEntry& m) {
                                     return m.last < floor;
                                   }),
                    entries.end());
      it = entries.empty() ? memo_.erase(it) : std::next(it);
    }
    oplog_.PruneBelow(floor);
    in_flight_.erase(in_flight_.begin(),
                     in_flight_.lower_bound(audited_version_));
  }
}

}  // namespace sdr
