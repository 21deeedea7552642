#include "src/core/master.h"

#include <algorithm>
#include <iterator>

#include "src/crypto/sha1.h"
#include "src/trace/trace.h"
#include "src/util/logging.h"

namespace sdr {

Master::Master(Options options)
    : options_(std::move(options)),
      signer_(options_.key_pair),
      rng_(options_.key_pair.public_key.empty()
               ? 1
               : static_cast<uint64_t>(options_.key_pair.public_key[0]) + 1),
      oplog_(options_.snapshot_interval),
      last_commit_time_(0) {}

void Master::Start() {
  queue_ = std::make_unique<ServiceQueue>(env(), options_.cost.master_speed);
  queue_->BindTrace(TraceRole::kMaster, id());
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

  // Allow the very first write to commit immediately.
  last_commit_time_ = env()->Now() - options_.params.max_latency;

  for (NodeId peer : options_.group) {
    if (peer != id()) {
      peer_last_gossip_[peer] = env()->Now();
    }
  }

  SendKeepAlives();
  GossipTick();
}

void Master::AddSlave(const Certificate& cert) {
  my_slaves_[cert.subject] = SlaveState{cert};
  slave_owner_[cert.subject] = id();
  known_slave_certs_[cert.subject] = cert;
}

void Master::SetBaseContent(const DocumentStore& base) {
  oplog_.SetBaseSnapshot(base);
}

VersionToken Master::CurrentToken() {
  return MakeVersionToken(signer_, id(), oplog_.head_version(), env()->Now());
}

void Master::HandleMessage(NodeId from, const Payload& payload) {
  auto type = PeekType(payload);
  if (!type.ok()) {
    return;
  }
  BytesView body = BytesView(payload).substr(1);
  switch (*type) {
    case MsgType::kClientHello:
      HandleClientHello(from, body);
      break;
    case MsgType::kWriteRequest:
      HandleWriteRequest(from, body);
      break;
    case MsgType::kDoubleCheckRequest:
      HandleDoubleCheck(from, body);
      break;
    case MsgType::kAccusation:
      HandleAccusation(from, body);
      break;
    case MsgType::kForkEvidence:
      HandleForkEvidence(from, body);
      break;
    case MsgType::kSlaveAck:
      HandleSlaveAck(from, body);
      break;
    case MsgType::kBroadcastEnvelope:
      broadcast_->OnMessage(from, body);
      break;
    // Not addressed to a master; ignored by design.
    case MsgType::kDirectoryLookup:
    case MsgType::kDirectoryLookupReply:
    case MsgType::kClientHelloReply:
    case MsgType::kReadRequest:
    case MsgType::kReadReply:
    case MsgType::kWriteReply:
    case MsgType::kDoubleCheckReply:
    case MsgType::kReassignment:
    case MsgType::kKeepAlive:
    case MsgType::kAuditSubmit:
    case MsgType::kBadReadNotice:
    case MsgType::kVvExchange:
    case MsgType::kPlacementQuery:
    case MsgType::kPlacementReply:
    case MsgType::kStateUpdateBatch:
      break;
  }
}

// ---------------------------------------------------------------------------
// Client setup (Section 2, setup phase).
// ---------------------------------------------------------------------------

void Master::PickSlavesFor(std::vector<NodeId>& set) const {
  // Least-loaded live slaves, ties to the lowest id; the paper suggests
  // "the one closest to the client", which in the simulator degenerates to
  // load balancing. A slave's load is the number of read sets holding it.
  const size_t want = std::max<uint32_t>(options_.params.read_fanout, 1);
  while (set.size() < want) {
    NodeId best = kInvalidNode;
    size_t best_load = SIZE_MAX;
    for (const auto& [slave_id, state] : my_slaves_) {
      if (excluded_.count(slave_id) > 0 ||
          std::find(set.begin(), set.end(), slave_id) != set.end()) {
        continue;
      }
      size_t load = 0;
      for (const auto& [c, assigned] : client_slaves_) {
        load += static_cast<size_t>(
            std::count(assigned.begin(), assigned.end(), slave_id));
      }
      if (load < best_load) {
        best_load = load;
        best = slave_id;
      }
    }
    if (best == kInvalidNode) {
      return;  // fewer live slaves than the fan-out: the set stays short
    }
    set.push_back(best);
  }
}

std::vector<AssignedSlave> Master::AssignmentOf(
    const std::vector<NodeId>& set) {
  std::vector<AssignedSlave> members;
  members.reserve(set.size());
  for (NodeId slave : set) {
    members.push_back({my_slaves_[slave].cert, AuditorFor(slave)});
  }
  return members;
}

void Master::HandleClientHello(NodeId from, BytesView body) {
  auto msg = ClientHello::Decode(body);
  if (!msg.ok()) {
    return;
  }
  std::vector<NodeId> set;
  PickSlavesFor(set);
  if (set.empty()) {
    // No live slaves; silence makes the client retry elsewhere.
    return;
  }
  ClientHelloReply reply;
  reply.server_nonce = rng_.NextBytes(16);
  reply.seq = ++assignment_seq_;
  reply.slaves = AssignmentOf(set);
  reply.signature = signer_.Sign(reply.SignedBody(msg->client_nonce));
  client_slaves_[from] = std::move(set);
  env()->Send(from, EncodeTyped(MsgType::kClientHelloReply, reply));
}

// ---------------------------------------------------------------------------
// Write protocol (Section 3.1).
// ---------------------------------------------------------------------------

void Master::HandleWriteRequest(NodeId from, BytesView body) {
  auto msg = WriteRequest::Decode(body);
  if (!msg.ok()) {
    return;
  }
  ++metrics_.writes_received;
  if (!options_.writers.empty() && options_.writers.count(from) == 0) {
    ++metrics_.writes_denied_acl;
    WriteReply reply;
    reply.request_id = msg->request_id;
    reply.ok = false;
    reply.error_code = static_cast<uint8_t>(ErrorCode::kPermissionDenied);
    env()->Send(from, EncodeTyped(MsgType::kWriteReply, reply));
    return;
  }
  auto key = std::make_pair(from, msg->request_id);
  auto done = committed_writes_.find(key);
  if (done != committed_writes_.end()) {
    // Retried request that already committed: resend the reply.
    WriteReply reply;
    reply.request_id = msg->request_id;
    reply.ok = true;
    reply.committed_version = done->second;
    env()->Send(from, EncodeTyped(MsgType::kWriteReply, reply));
    return;
  }
  if (!pending_writes_.insert(key).second) {
    return;  // already in flight through the broadcast
  }
  TobWrite write;
  write.origin_master = id();
  write.client = from;
  write.request_id = msg->request_id;
  write.batch = std::move(msg->batch);
  bundle_.push_back(std::move(write));
  if (bundle_.size() >= options_.params.commit_batch) {
    FlushBundle();
  } else if (!bundle_timer_armed_) {
    bundle_timer_armed_ = true;
    env()->ScheduleAfter(options_.params.commit_window, [this] {
      bundle_timer_armed_ = false;
      FlushBundle();
    });
  }
}

void Master::FlushBundle() {
  if (bundle_.empty()) {
    return;
  }
  TobWriteBundle bundle;
  bundle.writes = std::move(bundle_);
  bundle_.clear();
  broadcast_->Broadcast(EncodeTyped(TobPayloadType::kWriteBundle, bundle));
}

void Master::OnDelivered(uint64_t /*seq*/, NodeId /*origin*/,
                         const Bytes& payload) {
  auto type = PeekTobType(payload);
  if (!type.ok()) {
    return;
  }
  BytesView body = BytesView(payload).substr(1);
  switch (*type) {
    case TobPayloadType::kGossip: {
      auto gossip = TobGossip::Decode(body);
      if (gossip.ok()) {
        OnTobGossip(*gossip);
      }
      break;
    }
    case TobPayloadType::kWriteBundle: {
      auto bundle = TobWriteBundle::Decode(body);
      if (bundle.ok()) {
        OnTobWriteBundle(std::move(*bundle));
      }
      break;
    }
  }
}

void Master::OnTobWriteBundle(TobWriteBundle bundle) {
  if (bundle.writes.empty()) {
    return;
  }
  commit_queue_.push_back(std::move(bundle.writes));
  PumpCommitQueue();
}

void Master::PumpCommitQueue() {
  if (commit_queue_.empty() || commit_timer_armed_) {
    return;
  }
  SimTime earliest = last_commit_time_ + options_.params.max_latency;
  if (env()->Now() >= earliest) {
    CommitBundle(commit_queue_.front());
    commit_queue_.pop_front();
    PumpCommitQueue();
    return;
  }
  commit_timer_armed_ = true;
  env()->ScheduleAt(earliest, [this] {
    commit_timer_armed_ = false;
    PumpCommitQueue();
  });
}

void Master::CommitBundle(const std::vector<TobWrite>& writes) {
  uint64_t first_version = oplog_.head_version() + 1;
  uint64_t version = first_version;
  for (const TobWrite& write : writes) {
    metrics_.work_units_executed += write.batch.size();
    oplog_.Append(version, write.batch);
    ++metrics_.writes_committed;
    if (TraceSink* t = env()->trace()) {
      t->Instant(TraceRole::kMaster, id(), "write.commit", kNoTrace,
                 static_cast<int64_t>(version));
    }
    if (write.origin_master == id()) {
      pending_writes_.erase({write.client, write.request_id});
      committed_writes_[{write.client, write.request_id}] = version;
      WriteReply reply;
      reply.request_id = write.request_id;
      reply.ok = true;
      reply.committed_version = version;
      env()->Send(write.client, EncodeTyped(MsgType::kWriteReply, reply));
    }
    ++version;
  }
  uint64_t last_version = version - 1;
  last_commit_time_ = env()->Now();
  ++metrics_.batches_committed;

  // Lazy state propagation: one certified run goes out after the commit,
  // in one shared buffer for the whole fan-out like the keep-alive path.
  // A master without slaves has no one to sign it for.
  if (my_slaves_.empty()) {
    return;
  }
  Payload wire = CertifiedRun(first_version, last_version);
  for (auto& [slave_id, state] : my_slaves_) {
    PushRun(slave_id, state, wire, last_version);
  }
}

Payload Master::CertifiedRun(uint64_t first_version, uint64_t last_version) {
  StateUpdateBatch update;
  update.first_version = first_version;
  for (uint64_t v = first_version; v <= last_version; ++v) {
    update.batches.push_back(*oplog_.BatchFor(v));
  }
  update.token = CurrentToken();
  update.commit = MakeBatchCommit(signer_, id(), first_version, last_version,
                                  update.BatchesSha1(), env()->Now());
  metrics_.commit_signatures += 2;
  return EncodeTyped(MsgType::kStateUpdateBatch, update);
}

void Master::PushRun(NodeId slave, SlaveState& state, const Payload& wire,
                     uint64_t last_version) {
  ++metrics_.state_updates_sent;
  state.sent_version = std::max(state.sent_version, last_version);
  state.sent_time = env()->Now();
  env()->Send(slave, wire);
}

void Master::HandleSlaveAck(NodeId from, BytesView body) {
  auto msg = SlaveAck::Decode(body);
  if (!msg.ok()) {
    return;
  }
  auto it = my_slaves_.find(from);
  if (it == my_slaves_.end()) {
    return;
  }
  // Catch-up: the next missing versions, at most 8 per ack, as one
  // certified run. The ack is unsigned, so at most two signatures per ack.
  uint64_t head = oplog_.head_version();
  if (msg->applied_version >= head) {
    return;
  }
  uint64_t next = msg->applied_version + 1;
  if (next <= it->second.sent_version &&
      env()->Now() - it->second.sent_time <
          options_.params.keepalive_period) {
    // Everything missing is already in flight — typically a state update
    // waiting behind the slave's read queue — and re-signing it here
    // defeats group commit's amortization. A genuinely lost update is
    // re-pushed once the slave's acks have stalled for a keepalive period.
    return;
  }
  uint64_t last = std::min(head, next + 7);
  PushRun(from, it->second, CertifiedRun(next, last), last);
}

void Master::SendKeepAlives() {
  env()->ScheduleAfter(options_.params.keepalive_period,
                       [this] { SendKeepAlives(); });
  if (!up()) {
    return;
  }
  KeepAlive msg;
  msg.token = CurrentToken();
  // One shared buffer for the whole fan-out: each Send bumps a refcount.
  Payload wire = EncodeTyped(MsgType::kKeepAlive, msg);
  for (const auto& [slave_id, state] : my_slaves_) {
    ++metrics_.keepalives_sent;
    env()->Send(slave_id, wire);
  }
}

// ---------------------------------------------------------------------------
// Gossip and master-crash recovery (Section 3).
// ---------------------------------------------------------------------------

void Master::GossipTick() {
  env()->ScheduleAfter(options_.params.gossip_period, [this] { GossipTick(); });
  if (!up()) {
    return;
  }
  TobGossip gossip;
  gossip.master = id();
  for (const auto& [slave_id, state] : my_slaves_) {
    gossip.slave_certs.push_back(state.cert);
  }
  // Peer exclusions are passed on too, so the group keeps knowing about an
  // exclusion for as long as any master that heard of it is alive.
  std::set_union(excluded_.begin(), excluded_.end(), peer_excluded_.begin(),
                 peer_excluded_.end(),
                 std::back_inserter(gossip.excluded_slaves));
  broadcast_->Broadcast(EncodeTyped(TobPayloadType::kGossip, gossip));
  CheckPeerLiveness();
}

void Master::OnTobGossip(const TobGossip& gossip) {
  peer_last_gossip_[gossip.master] = env()->Now();
  if (dead_masters_.count(gossip.master) > 0) {
    // Peer resurrected: yield back the slaves we adopted from it.
    dead_masters_.erase(gossip.master);
    std::vector<NodeId> to_yield;
    for (const auto& [slave_id, state] : my_slaves_) {
      if (state.adopted_from == gossip.master) {
        to_yield.push_back(slave_id);
      }
    }
    for (NodeId slave_id : to_yield) {
      RemoveSlaveAndReassignClients(slave_id, /*excluded=*/false);
    }
  }
  if (gossip.master == id()) {
    return;
  }
  peer_excluded_.insert(gossip.excluded_slaves.begin(),
                        gossip.excluded_slaves.end());
  for (const Certificate& cert : gossip.slave_certs) {
    if (my_slaves_.count(cert.subject) > 0 &&
        my_slaves_[cert.subject].adopted_from != gossip.master) {
      continue;  // a slave of ours; the gossiper is stale
    }
    slave_owner_[cert.subject] = gossip.master;
    known_slave_certs_[cert.subject] = cert;
  }
}

void Master::CheckPeerLiveness() {
  for (const auto& [peer, last] : peer_last_gossip_) {
    if (dead_masters_.count(peer) > 0) {
      continue;
    }
    if (env()->Now() - last > options_.params.master_failure_timeout) {
      dead_masters_.insert(peer);
      SDR_LOG(kInfo) << "master " << id() << ": presumes master " << peer
                     << " crashed, dividing its slave set";
      AdoptOrphanedSlaves(peer);
    }
  }
}

NodeId Master::AuditorFor(NodeId slave) const {
  if (options_.auditors.empty()) {
    return kInvalidNode;
  }
  return options_.auditors[slave % options_.auditors.size()];
}

void Master::AdoptOrphanedSlaves(NodeId dead_master) {
  // Survivors split the dead master's slaves deterministically: every
  // survivor computes the same assignment from the shared gossip view.
  std::vector<NodeId> survivors;
  for (NodeId m : options_.group) {
    bool is_auditor = false;
    for (NodeId a : options_.auditors) {
      if (a == m) {
        is_auditor = true;
      }
    }
    if (!is_auditor && dead_masters_.count(m) == 0) {
      survivors.push_back(m);
    }
  }
  std::sort(survivors.begin(), survivors.end());
  if (survivors.empty()) {
    return;
  }
  std::vector<NodeId> orphans;
  for (const auto& [slave_id, owner] : slave_owner_) {
    if (owner == dead_master && excluded_.count(slave_id) == 0 &&
        peer_excluded_.count(slave_id) == 0) {
      orphans.push_back(slave_id);
    }
  }
  std::sort(orphans.begin(), orphans.end());
  bool adopted_any = false;
  for (size_t i = 0; i < orphans.size(); ++i) {
    NodeId heir = survivors[i % survivors.size()];
    slave_owner_[orphans[i]] = heir;
    if (heir != id()) {
      continue;
    }
    const Certificate& old_cert = known_slave_certs_[orphans[i]];
    // Re-certify under our key so clients we assign it to can verify.
    Certificate cert = IssueCertificate(signer_, orphans[i], Role::kSlave,
                                        old_cert.subject_public_key);
    known_slave_certs_[orphans[i]] = cert;
    SlaveState state;
    state.cert = cert;
    state.adopted_from = dead_master;
    my_slaves_[orphans[i]] = state;
    adopted_any = true;
    // Wake the adopted slave: keep-alive + ack-driven catch-up.
    KeepAlive ka;
    ka.token = CurrentToken();
    env()->Send(orphans[i], EncodeTyped(MsgType::kKeepAlive, ka));
  }
  if (adopted_any) {
    ++metrics_.slave_sets_adopted;
  }
}

// ---------------------------------------------------------------------------
// Probabilistic checking (Section 3.3).
// ---------------------------------------------------------------------------

bool Master::AllowDoubleCheck(NodeId client) {
  if (!options_.params.greedy_policing_enabled) {
    return true;
  }
  Bucket& bucket = greedy_buckets_[client];
  SimTime now = env()->Now();
  if (bucket.last_refill == 0) {
    bucket.tokens = options_.params.greedy_burst;
  } else {
    double elapsed_s =
        static_cast<double>(now - bucket.last_refill) / kSecond;
    bucket.tokens =
        std::min(options_.params.greedy_burst,
                 bucket.tokens +
                     elapsed_s * options_.params.greedy_refill_per_second);
  }
  bucket.last_refill = now;
  if (bucket.tokens < 1.0) {
    return false;
  }
  bucket.tokens -= 1.0;
  return true;
}

void Master::HandleDoubleCheck(NodeId from, BytesView body) {
  auto msg = DoubleCheckRequest::Decode(body);
  if (!msg.ok()) {
    return;
  }
  DoubleCheckReply reply;
  reply.request_id = msg->request_id;
  reply.trace_id = msg->trace_id;

  if (!AllowDoubleCheck(from)) {
    ++metrics_.double_checks_throttled;
    reply.served = false;
    env()->Send(from, EncodeTyped(MsgType::kDoubleCheckReply, reply));
    return;
  }

  const Pledge pledge = msg->pledge;
  DocumentStore scratch;
  auto at_version = oplog_.ReadAt(pledge.token.content_version, &scratch);
  if (!at_version.ok()) {
    reply.served = false;
    env()->Send(from, EncodeTyped(MsgType::kDoubleCheckReply, reply));
    return;
  }
  auto outcome = executor_.Execute(**at_version, pledge.query);
  if (!outcome.ok()) {
    reply.served = false;
    env()->Send(from, EncodeTyped(MsgType::kDoubleCheckReply, reply));
    return;
  }
  metrics_.work_units_executed += outcome->cost;
  ++metrics_.double_checks_served;

  Bytes correct_result = outcome->result.Encode();
  bool matches = Sha1::Hash(correct_result) == pledge.result_sha1;

  if (TraceSink* t = env()->trace()) {
    t->Instant(TraceRole::kMaster, id(), "dc.serve", msg->trace_id,
               matches ? 1 : 0);
  }
  SimTime service_time =
      options_.cost.ExecuteTime(outcome->cost, correct_result.size());
  queue_->Enqueue(service_time, [this, from, reply, matches,
                                 result = std::move(correct_result),
                                 pledge]() mutable {
    reply.served = true;
    reply.matches = matches;
    reply.correct_result = std::move(result);
    env()->Send(from, EncodeTyped(MsgType::kDoubleCheckReply, reply));
    if (!matches) {
      ++metrics_.double_check_lies_found;
      if (TraceSink* t = env()->trace()) {
        t->Instant(TraceRole::kMaster, id(), "dc.lie_found", reply.trace_id,
                   static_cast<int64_t>(pledge.slave));
        t->Hist(TraceRole::kMaster, id(), "detection_latency_us")
            .Record(env()->Now() - pledge.token.timestamp);
      }
      ProcessIncriminatingPledge(pledge, reply.trace_id);
    }
  });
}

// ---------------------------------------------------------------------------
// Corrective action (Section 3.5).
// ---------------------------------------------------------------------------

void Master::HandleAccusation(NodeId /*from*/, BytesView body) {
  auto msg = Accusation::Decode(body);
  if (!msg.ok()) {
    return;
  }
  ++metrics_.accusations_received;
  if (TraceSink* t = env()->trace()) {
    t->Instant(TraceRole::kMaster, id(), "accusation.recv", msg->trace_id,
               static_cast<int64_t>(msg->pledge.slave));
  }
  switch (ProcessIncriminatingPledge(msg->pledge, msg->trace_id)) {
    case Incrimination::kConfirmed:
      ++metrics_.accusations_confirmed;
      break;
    case Incrimination::kRepeat:
      ++metrics_.accusations_repeat;
      break;
    case Incrimination::kUnfounded:
      ++metrics_.accusations_unfounded;
      break;
  }
}

void Master::HandleForkEvidence(NodeId /*from*/, BytesView body) {
  if (!options_.params.fork_check_enabled) {
    return;
  }
  auto msg = ForkEvidence::Decode(body);
  if (!msg.ok()) {
    return;
  }
  ++metrics_.fork_evidence_received;
  // The chain is self-contained: it verifies against nothing but the
  // content public key, so a master never has to trust the reporter.
  if (!VerifyEvidenceChain(options_.params.scheme,
                           options_.content.content_public_key, msg->chain)) {
    return;
  }
  ++metrics_.fork_evidence_confirmed;
  NodeId slave = msg->chain.a.vv.slave;
  if (TraceSink* t = env()->trace()) {
    t->Instant(TraceRole::kMaster, id(), "fork.confirmed", msg->trace_id,
               static_cast<int64_t>(slave));
  }
  if (!options_.params.exclusion_enabled) {
    return;
  }
  if (my_slaves_.count(slave) > 0) {
    if (excluded_.count(slave) == 0) {
      ExcludeSlave(slave, msg->trace_id);
    }
    return;
  }
  auto owner = slave_owner_.find(slave);
  if (owner != slave_owner_.end() && owner->second != id()) {
    env()->Send(owner->second, EncodeTyped(MsgType::kForkEvidence, *msg));
  }
}

Master::Incrimination Master::ProcessIncriminatingPledge(
    const Pledge& pledge, uint64_t trace_id) {
  // 1. The pledge must really be signed by the slave — otherwise anyone
  //    could frame an innocent server.
  auto cert_it = known_slave_certs_.find(pledge.slave);
  if (cert_it == known_slave_certs_.end()) {
    return Incrimination::kUnfounded;
  }
  if (!VerifyPledgeSignature(options_.params.scheme,
                             cert_it->second.subject_public_key, pledge,
                             &verify_cache_)) {
    return Incrimination::kUnfounded;
  }
  // 2. The embedded version token must be genuine — otherwise the "wrong"
  //    answer might just be an answer to a different version.
  auto master_key = options_.master_keys.find(pledge.token.master);
  if (master_key == options_.master_keys.end() ||
      !VerifyVersionToken(options_.params.scheme, master_key->second,
                          pledge.token, &verify_cache_)) {
    return Incrimination::kUnfounded;
  }
  // 3. Re-execute at the pledged version and compare.
  DocumentStore scratch;
  auto at_version = oplog_.ReadAt(pledge.token.content_version, &scratch);
  if (!at_version.ok()) {
    return Incrimination::kUnfounded;
  }
  auto outcome = executor_.Execute(**at_version, pledge.query);
  if (!outcome.ok()) {
    return Incrimination::kUnfounded;
  }
  metrics_.work_units_executed += outcome->cost;
  if (outcome->result.Sha1Digest() == pledge.result_sha1) {
    return Incrimination::kUnfounded;  // the pledge checks out
  }
  // Guilty. If it is ours, exclude; otherwise hand the proof to its owner.
  if (!options_.params.exclusion_enabled) {
    return Incrimination::kConfirmed;  // punishment disabled by configuration
  }
  if (excluded_.count(pledge.slave) > 0) {
    return Incrimination::kRepeat;
  }
  if (my_slaves_.count(pledge.slave) > 0) {
    ExcludeSlave(pledge.slave, trace_id);
    return Incrimination::kConfirmed;
  }
  auto owner = slave_owner_.find(pledge.slave);
  if (owner != slave_owner_.end() && owner->second != id()) {
    Accusation fwd;
    fwd.trace_id = trace_id;
    fwd.pledge = pledge;
    env()->Send(owner->second, EncodeTyped(MsgType::kAccusation, fwd));
    return Incrimination::kConfirmed;
  }
  return Incrimination::kUnfounded;
}

void Master::ExcludeSlave(NodeId slave, uint64_t trace_id) {
  RemoveSlaveAndReassignClients(slave, /*excluded=*/true, trace_id);
}

void Master::RemoveSlaveAndReassignClients(NodeId slave, bool excluded,
                                           uint64_t trace_id) {
  if (excluded) {
    excluded_.insert(slave);
    ++metrics_.slaves_excluded;
    SDR_LOG(kInfo) << "master " << id() << ": excluded slave " << slave;
    if (TraceSink* t = env()->trace()) {
      t->Instant(TraceRole::kMaster, id(), "master.exclude", trace_id,
                 static_cast<int64_t>(slave));
    }
  }
  my_slaves_.erase(slave);

  std::vector<NodeId> affected;
  for (const auto& [client, assigned] : client_slaves_) {
    if (std::find(assigned.begin(), assigned.end(), slave) != assigned.end()) {
      affected.push_back(client);
    }
  }
  for (NodeId client : affected) {
    // The client keeps the rest of its set; the gap is filled from slaves
    // not already in it, or the set shrinks when none is left. An empty
    // set is still signed and sent: it tells the client to set up again.
    std::vector<NodeId> set = client_slaves_[client];
    set.erase(std::find(set.begin(), set.end(), slave));
    PickSlavesFor(set);
    ++metrics_.clients_reassigned;
    if (TraceSink* t = env()->trace()) {
      t->Instant(TraceRole::kMaster, id(), "reassign", trace_id,
                 static_cast<int64_t>(client));
    }
    Reassignment msg;
    msg.seq = ++assignment_seq_;
    msg.slaves = AssignmentOf(set);
    msg.excluded_slave = excluded ? slave : kInvalidNode;
    msg.trace_id = trace_id;
    msg.signature = signer_.Sign(msg.SignedBody());
    if (set.empty()) {
      client_slaves_.erase(client);
    } else {
      client_slaves_[client] = std::move(set);
    }
    env()->Send(client, EncodeTyped(MsgType::kReassignment, msg));
  }
}

}  // namespace sdr
