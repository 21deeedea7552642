#include "src/core/client.h"

#include <algorithm>
#include <bit>

#include "src/crypto/sha1.h"
#include "src/trace/trace.h"
#include "src/util/logging.h"

namespace sdr {

Client::Client(Options options)
    : options_(std::move(options)), rng_(options_.rng_seed) {}

void Client::Start() {
  rng_ = Rng(options_.rng_seed ^ (static_cast<uint64_t>(id()) << 32));
  BeginSetup();
  if (options_.params.fork_check_enabled && !options_.peer_clients.empty()) {
    ScheduleVvGossip();
  }
}

const Bytes* Client::MasterKey(NodeId master) const {
  for (const Certificate& cert : master_certs_) {
    if (cert.subject == master) {
      return &cert.subject_public_key;
    }
  }
  return nullptr;
}

const Client::Lane& Client::LaneFor(uint32_t shard) const {
  static const Lane kNone;
  return shard < lanes_.size() ? lanes_[shard] : kNone;
}

const ShardMap* Client::PlanningMap() {
  static const ShardMap kOneShard;
  if (placement_.has_value()) {
    ++metrics_.placement_cache_hits;
    return &placement_->map;
  }
  return num_lanes() == 1 ? &kOneShard : nullptr;
}

// ---------------------------------------------------------------------------
// Setup phase (Section 2).
// ---------------------------------------------------------------------------

void Client::BeginSetup() {
  phase_ = Phase::kAwaitDirectory;
  ++setup_attempts_;
  DirectoryLookup lookup;
  lookup.content_public_key = options_.content.content_public_key;
  env()->Send(options_.directory,
              WithType(MsgType::kDirectoryLookup, lookup.Encode()));
  env()->Cancel(setup_timeout_);
  setup_timeout_ = env()->ScheduleAfter(options_.params.client_timeout, [this] {
    if (phase_ != Phase::kReady) {
      BeginSetup();
    }
  });
}

void Client::HandleDirectoryReply(BytesView body) {
  if (phase_ != Phase::kAwaitDirectory) {
    return;
  }
  auto msg = DirectoryLookupReply::Decode(body);
  if (!msg.ok()) {
    return;
  }
  // Keep only certificates that verify against the content key — the
  // directory itself is untrusted.
  std::vector<Certificate> verified;
  for (const Certificate& cert : msg->master_certs) {
    if (cert.role == Role::kMaster &&
        VerifyCertificate(options_.content.scheme,
                          options_.content.content_public_key, cert)) {
      verified.push_back(cert);
    }
  }
  if (verified.empty()) {
    return;  // setup timeout will retry
  }
  master_certs_ = std::move(verified);

  if (num_lanes() > 1) {
    // The directory only told us *who* the masters are; the signed
    // placement says which shard each serves. Fetch it (a placement-cache
    // miss — every op until the next re-setup plans from the cached copy).
    phase_ = Phase::kAwaitPlacement;
    ++metrics_.placement_cache_misses;
    PlacementQuery query;
    query.content_public_key = options_.content.content_public_key;
    env()->Send(options_.directory,
                WithType(MsgType::kPlacementQuery, query.Encode()));
    return;
  }

  // One lane: every certified master serves it.
  std::vector<NodeId> candidates;
  for (const Certificate& cert : master_certs_) {
    candidates.push_back(cert.subject);
  }
  OpenLanes({std::move(candidates)});
}

void Client::HandlePlacementReply(BytesView body) {
  if (phase_ != Phase::kAwaitPlacement) {
    return;
  }
  auto msg = PlacementReply::Decode(body);
  if (!msg.ok() || !msg->found) {
    return;  // setup timeout will retry
  }
  // The placement is signed by the content key — the directory merely
  // relays it, exactly like the master certificates.
  if (!VerifyShardPlacement(options_.content.scheme,
                            options_.content.content_public_key,
                            msg->placement) ||
      msg->placement.map.num_shards() != options_.num_shards) {
    return;
  }
  placement_ = msg->placement;

  // One lane per shard, served by that shard's certified masters.
  std::vector<std::vector<NodeId>> candidates(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    for (NodeId m : placement_->shard_masters[s]) {
      if (MasterKey(m) != nullptr) {
        candidates[s].push_back(m);
      }
    }
    if (candidates[s].empty()) {
      return;  // setup timeout will retry
    }
  }
  OpenLanes(candidates);
}

void Client::OpenLanes(const std::vector<std::vector<NodeId>>& candidates) {
  // A re-setup keeps each lane's slave and auditor until the new hello
  // reply replaces them, so reads in flight can still complete.
  lanes_.resize(candidates.size());
  for (size_t s = 0; s < candidates.size(); ++s) {
    Lane& lane = lanes_[s];
    // Avoid the lane's previous master: it may just have gone silent.
    std::vector<NodeId> fresh;
    for (NodeId m : candidates[s]) {
      if (m != lane.master || candidates[s].size() == 1) {
        fresh.push_back(m);
      }
    }
    if (fresh.empty()) {
      fresh.push_back(candidates[s][0]);
    }
    lane.master = fresh[rng_.NextBounded(fresh.size())];
    lane.seq = 0;  // the new master numbers its own sets
    lane.nonce = rng_.NextBytes(16);
    lane.ready = false;
  }
  phase_ = Phase::kAwaitHello;
  for (const Lane& lane : lanes_) {
    ClientHello hello;
    hello.client_nonce = lane.nonce;
    env()->Send(lane.master, WithType(MsgType::kClientHello, hello.Encode()));
  }
}

void Client::HandleHelloReply(NodeId from, BytesView body) {
  if (phase_ != Phase::kAwaitHello) {
    return;
  }
  Lane* lane = nullptr;
  for (Lane& l : lanes_) {
    if (l.master == from && !l.ready) {
      lane = &l;
      break;
    }
  }
  if (lane == nullptr) {
    return;
  }
  auto msg = ClientHelloReply::Decode(body);
  if (!msg.ok()) {
    return;
  }
  const Bytes* master_key = MasterKey(from);
  if (master_key == nullptr ||
      !VerifySignature(options_.params.scheme, *master_key,
                       msg->SignedBody(lane->nonce), msg->signature)) {
    return;
  }
  // The nonce makes the reply fresh, but a reassignment this master signed
  // after it may have overtaken it; that newer set stays. If the newer set
  // is empty, the lane stays unready and the setup timeout starts over.
  if ((lane->seq == 0 || msg->seq > lane->seq) &&
      !AdoptReadSet(*lane, msg->seq, msg->slaves, *master_key)) {
    return;
  }
  if (lane->slaves.empty()) {
    return;
  }
  lane->ready = true;
  for (const Lane& l : lanes_) {
    if (!l.ready) {
      return;  // the other lanes' hellos are still in flight
    }
  }
  phase_ = Phase::kReady;
  env()->Cancel(setup_timeout_);
  ++metrics_.setups_completed;
  // Re-issue anything that was in flight when the old master died.
  for (auto& [request_id, read] : reads_) {
    if (read.stage != PendingRead::Stage::kAwaitDoubleCheck) {
      SendRead(request_id);
    }
  }
  for (auto& [request_id, write] : writes_) {
    (void)write;
    SendWrite(request_id);
  }
  if (options_.mode != LoadMode::kManual && metrics_.setups_completed == 1) {
    ScheduleNextOp();
  }
}

void Client::HandleReassignment(NodeId from, BytesView body) {
  Lane* lane = nullptr;
  for (Lane& l : lanes_) {
    if (l.master == from) {
      lane = &l;
      break;
    }
  }
  if (lane == nullptr) {
    return;
  }
  auto msg = Reassignment::Decode(body);
  // Sets signed in quick succession may arrive out of order.
  if (!msg.ok() || msg->seq <= lane->seq) {
    return;
  }
  const Bytes* master_key = MasterKey(from);
  if (master_key == nullptr ||
      !VerifySignature(options_.params.scheme, *master_key, msg->SignedBody(),
                       msg->signature)) {
    return;
  }
  const bool emptied = msg->slaves.empty();
  if (emptied) {
    lane->slaves.clear();
    lane->seq = msg->seq;
  } else if (!AdoptReadSet(*lane, msg->seq, msg->slaves, *master_key)) {
    return;
  }
  ++metrics_.reassignments;
  if (TraceSink* t = env()->trace()) {
    t->Instant(TraceRole::kClient, id(), "reassigned", msg->trace_id,
               static_cast<int64_t>(msg->excluded_slave));
  }
  if (phase_ != Phase::kReady) {
    return;  // the hello reply re-issues every read
  }
  // The replies in hand were counted by position in the old set, and some
  // may come from the slave just excluded: restart each attempt out to
  // the new set. Reads backing off send there when they retry, and a
  // double-check in flight is settled by the master. With no set left,
  // each attempt is parked instead (no send, no timeout) until the hello
  // reply of a new setup, possibly with another master, re-issues it.
  const uint32_t shard = static_cast<uint32_t>(lane - lanes_.data());
  for (auto& [request_id, read] : reads_) {
    if (read.shard == shard &&
        read.stage == PendingRead::Stage::kAwaitReplies) {
      if (emptied) {
        env()->Cancel(read.timeout);
      } else {
        StartAttempt(request_id, read);
      }
    }
  }
  if (emptied) {
    phase_ = Phase::kIdle;
    BeginSetup();
  }
}

bool Client::AdoptReadSet(Lane& lane, uint64_t seq,
                          const std::vector<AssignedSlave>& slaves,
                          const Bytes& master_key) {
  if (slaves.empty() || slaves.size() > 64) {
    return false;  // 64: PendingRead::replied has one bit per member
  }
  // Every certificate must chain to the master that assigned it.
  for (const AssignedSlave& s : slaves) {
    if (s.cert.role != Role::kSlave ||
        !VerifyCertificate(options_.params.scheme, master_key, s.cert)) {
      return false;
    }
  }
  lane.slaves = slaves;
  lane.seq = seq;
  return true;
}

void Client::HandleBadReadNotice(BytesView body) {
  auto msg = BadReadNotice::Decode(body);
  if (!msg.ok()) {
    return;
  }
  // Sanity: the embedded token must be signed by a certified master —
  // otherwise anyone could spam clients into rolling back.
  const Bytes* master_key = MasterKey(msg->pledge.token.master);
  if (master_key == nullptr ||
      !VerifyVersionToken(options_.params.scheme, *master_key,
                          msg->pledge.token, &verify_cache_)) {
    return;
  }
  ++metrics_.bad_read_notices;
  if (TraceSink* t = env()->trace()) {
    t->Instant(TraceRole::kClient, id(), "bad_read_notice", msg->trace_id);
  }
  if (on_bad_read) {
    on_bad_read(msg->pledge.query, msg->pledge.token.content_version);
  }
}

// ---------------------------------------------------------------------------
// Fork-consistency checking (src/forkcheck/; beyond the paper).
// ---------------------------------------------------------------------------

void Client::ScheduleVvGossip() {
  env()->ScheduleAfter(options_.params.vv_gossip_period, [this] {
    GossipVvs();
    ScheduleVvGossip();
  });
}

void Client::GossipVvs() {
  if (latest_vv_.empty()) {
    return;
  }
  std::vector<NodeId> peers;
  peers.reserve(options_.peer_clients.size());
  for (NodeId p : options_.peer_clients) {
    if (p != id()) {
      peers.push_back(p);
    }
  }
  if (peers.empty()) {
    return;
  }
  VvExchange msg;
  msg.origin = id();
  msg.entries.reserve(latest_vv_.size());
  for (const auto& [slave, avv] : latest_vv_) {
    (void)slave;
    msg.entries.push_back(avv);
  }
  Bytes encoded = WithType(MsgType::kVvExchange, msg.Encode());
  size_t fanout = std::min<size_t>(options_.params.vv_gossip_fanout,
                                   peers.size());
  // Partial Fisher-Yates: `fanout` distinct peers, uniform without bias.
  for (size_t i = 0; i < fanout; ++i) {
    size_t j = i + rng_.NextBounded(peers.size() - i);
    std::swap(peers[i], peers[j]);
    env()->Send(peers[i], encoded);
    ++metrics_.vv_exchanges_sent;
  }
}

bool Client::VerifyAttestedVv(const AttestedVv& avv) {
  // Internal consistency first (cheap), then the three signatures: token
  // under its master's key, slave certificate under some certified master,
  // vector under the certified slave key. All through the verify cache —
  // tokens and certificates repeat across gossip rounds, so most are hits.
  if (avv.slave_cert.role != Role::kSlave ||
      avv.vv.slave != avv.slave_cert.subject ||
      avv.token.content_version != avv.vv.content_version) {
    return false;
  }
  const Bytes* token_key = MasterKey(avv.token.master);
  if (token_key == nullptr ||
      !VerifyVersionToken(options_.params.scheme, *token_key, avv.token,
                          &verify_cache_)) {
    return false;
  }
  bool cert_ok = false;
  for (const Certificate& mc : master_certs_) {
    if (verify_cache_.Verify(options_.params.scheme, mc.subject_public_key,
                             avv.slave_cert.SignedBody(),
                             avv.slave_cert.signature)) {
      cert_ok = true;
      break;
    }
  }
  if (!cert_ok) {
    return false;
  }
  return VerifyVersionVector(options_.params.scheme,
                             avv.slave_cert.subject_public_key, avv.vv,
                             &verify_cache_);
}

void Client::HandleVvExchange(BytesView body) {
  if (!options_.params.fork_check_enabled) {
    return;
  }
  auto msg = VvExchange::Decode(body);
  if (!msg.ok()) {
    return;
  }
  ++metrics_.vv_exchanges_received;
  for (const AttestedVv& avv : msg->entries) {
    if (VerifyAttestedVv(avv)) {
      ObserveVv(avv);
    }
  }
}

void Client::ObserveVv(const AttestedVv& avv) {
  // "Latest" per slave means longest chain: lengths grow by one per served
  // read, while the content version can stall across many reads.
  auto it = latest_vv_.find(avv.vv.slave);
  if (it == latest_vv_.end() ||
      it->second.vv.chain_length < avv.vv.chain_length) {
    latest_vv_[avv.vv.slave] = avv;
  }
  auto conflict = fork_detector_.Observe(avv);
  if (!conflict.has_value()) {
    return;
  }
  ++metrics_.forks_detected;
  uint64_t trace_id = MintTraceId(id(), next_request_id_++);
  if (TraceSink* t = env()->trace()) {
    t->Instant(TraceRole::kClient, id(), "fork.detect", trace_id,
               static_cast<int64_t>(avv.vv.slave));
  }
  EmitForkEvidence(*conflict, trace_id);
}

void Client::EmitForkEvidence(const ForkDetector::Conflict& conflict,
                              uint64_t trace_id) {
  EvidenceChain chain =
      MakeEvidenceChain(conflict.first, conflict.second, master_certs_);
  ++metrics_.evidence_chains_emitted;
  if (on_evidence) {
    on_evidence(chain);
  }
  // Route the evidence to the (certified) master that signed the
  // conflicting token, i.e. the one whose slave group the equivocator
  // belongs to.
  ForkEvidence msg;
  msg.trace_id = trace_id;
  msg.chain = std::move(chain);
  env()->Send(conflict.first.token.master,
              WithType(MsgType::kForkEvidence, msg.Encode()));
}

void Client::MasterSuspect() {
  // The master has gone silent: redo the setup phase with another master
  // ("all the clients connected to the crashed server will have to go
  // through the setup process again", Section 3).
  if (phase_ == Phase::kReady) {
    phase_ = Phase::kIdle;
    BeginSetup();
  }
}

// ---------------------------------------------------------------------------
// Reads (Sections 3.2-3.4).
// ---------------------------------------------------------------------------

void Client::IssueRead(Query query, ReadCallback cb) {
  const ShardMap* map = PlanningMap();
  if (map == nullptr) {
    if (cb) {
      cb(false, QueryResult{});
    }
    return;
  }
  std::vector<ShardSubquery> plan = PlanShardQuery(*map, query);
  if (plan.size() == 1) {
    // Single owning shard: a normal read, routed down that lane.
    uint64_t request_id = next_request_id_++;
    PendingRead read;
    read.query = std::move(plan[0].query);
    read.shard = plan[0].shard;
    read.first_issued = env()->Now();
    read.cb = std::move(cb);
    read.trace_id = MintTraceId(id(), request_id);
    if (TraceSink* t = env()->trace()) {
      t->SpanBegin(TraceRole::kClient, id(), "read", read.trace_id);
    }
    reads_.emplace(request_id, std::move(read));
    ++metrics_.reads_issued;
    SendRead(request_id);
    return;
  }
  // The query spans shards: fan one leg out per plan entry. Every leg runs
  // the full verification pipeline (hash, pledge + token signatures,
  // freshness, probabilistic double-check) before it counts.
  uint64_t parent_id = next_request_id_++;
  MultiRead multi;
  multi.query = std::move(query);
  multi.plan = plan;
  multi.results.resize(plan.size());
  multi.pledges.resize(plan.size());
  multi.remaining = plan.size();
  multi.first_issued = env()->Now();
  multi.cb = std::move(cb);
  multi.trace_id = MintTraceId(id(), parent_id);
  if (TraceSink* t = env()->trace()) {
    t->SpanBegin(TraceRole::kClient, id(), "read", multi.trace_id);
  }
  ++metrics_.reads_issued;
  ++metrics_.multi_shard_reads;
  for (size_t i = 0; i < plan.size(); ++i) {
    uint64_t sub_id = next_request_id_++;
    PendingRead sub;
    sub.query = plan[i].query;
    sub.shard = plan[i].shard;
    sub.parent = parent_id;
    sub.leg = static_cast<uint32_t>(i);
    sub.first_issued = env()->Now();
    sub.trace_id = multi.trace_id;
    multi.sub_ids.push_back(sub_id);
    reads_.emplace(sub_id, std::move(sub));
    ++metrics_.shard_subreads_issued;
  }
  auto [it, inserted] = multireads_.emplace(parent_id, std::move(multi));
  (void)inserted;
  for (uint64_t sub_id : it->second.sub_ids) {
    SendRead(sub_id);
  }
}

void Client::SendRead(uint64_t request_id) {
  auto it = reads_.find(request_id);
  if (it == reads_.end() || LaneFor(it->second.shard).slaves.empty()) {
    return;
  }
  PendingRead& read = it->second;
  ++read.attempts;
  if (read.attempts > 1) {
    ++metrics_.retries;
    if (TraceSink* t = env()->trace()) {
      t->Instant(TraceRole::kClient, id(), "read.retry", read.trace_id,
                 read.attempts);
    }
  }
  StartAttempt(request_id, read);
}

void Client::StartAttempt(uint64_t request_id, PendingRead& read) {
  read.stage = PendingRead::Stage::kAwaitReplies;
  read.replied = 0;
  read.retry_delay = 0;
  read.held.clear();
  read.disagreement = false;
  ReadRequest msg;
  msg.request_id = request_id;
  msg.trace_id = read.trace_id;
  msg.query = read.query;
  const Payload wire = WithType(MsgType::kReadRequest, msg.Encode());
  for (const AssignedSlave& slave : LaneFor(read.shard).slaves) {
    env()->Send(slave.cert.subject, wire);
  }
  env()->Cancel(read.timeout);
  read.timeout =
      env()->ScheduleAfter(options_.params.client_timeout, [this, request_id] {
        auto it = reads_.find(request_id);
        if (it == reads_.end() ||
            it->second.stage != PendingRead::Stage::kAwaitReplies) {
          return;
        }
        if (!it->second.held.empty()) {
          ResolveFanout(request_id);  // settle on the answers in hand
          return;
        }
        if (it->second.attempts > options_.max_read_retries) {
          ++metrics_.reads_timed_out;
          FailRead(request_id);
          return;
        }
        SendRead(request_id);
      });
}

void Client::HandleReadReply(NodeId from, BytesView body) {
  auto msg = ReadReply::Decode(body);
  if (!msg.ok()) {
    return;
  }
  auto it = reads_.find(msg->request_id);
  if (it == reads_.end() ||
      it->second.stage != PendingRead::Stage::kAwaitReplies) {
    return;
  }
  PendingRead& read = it->second;
  const Lane& lane = LaneFor(read.shard);
  size_t member = 0;
  while (member < lane.slaves.size() &&
         lane.slaves[member].cert.subject != from) {
    ++member;
  }
  if (member == lane.slaves.size() ||
      (read.replied & (uint64_t{1} << member)) != 0) {
    return;  // a slave we no longer use, or a repeat within this attempt
  }
  read.replied |= uint64_t{1} << member;
  const AssignedSlave& slave = lane.slaves[member];
  std::optional<QueryResult> result = CheckReply(read, slave, *msg);
  const bool complete =
      static_cast<size_t>(std::popcount(read.replied)) == lane.slaves.size();
  if (!result.has_value()) {
    if (complete) {
      if (read.held.empty()) {
        RetryRead(msg->request_id, read.retry_delay);
      } else {
        ResolveFanout(msg->request_id);
      }
    }
    return;
  }
  HeldReply answer{std::move(*result), std::move(msg->pledge),
                   std::move(msg->vv), slave.auditor};
  if (complete && read.held.empty()) {
    // The only answer (always so at a fan-out of 1): the base path.
    SettleRead(msg->request_id, read, std::move(answer));
    return;
  }
  read.held.push_back(std::move(answer));
  if (complete) {
    ResolveFanout(msg->request_id);
  }
}

std::optional<QueryResult> Client::CheckReply(PendingRead& read,
                                              const AssignedSlave& slave,
                                              const ReadReply& msg) {
  TraceSink* t = env()->trace();
  if (!msg.ok) {
    // Honest decline (slave out of sync). Back off and retry.
    ++metrics_.reads_failed_declined;
    if (t != nullptr) {
      t->Instant(TraceRole::kClient, id(), "read.declined", read.trace_id);
    }
    read.retry_delay = std::max(read.retry_delay, options_.retry_backoff);
    return std::nullopt;
  }

  const Pledge& pledge = msg.pledge;
  // The version token is usually a verify-cache hit: it only changes on
  // keepalives.
  ReadVerdict verdict = VerifyRead(
      options_.params.scheme, msg.result, pledge, slave.cert,
      MasterKey(pledge.token.master), env()->Now(), effective_max_latency(),
      &verify_cache_);
  if (verdict == ReadVerdict::kHashMismatch) {
    ++metrics_.reads_rejected_hash;
    if (t != nullptr) {
      t->Instant(TraceRole::kClient, id(), "read.reject_hash", read.trace_id);
    }
    return std::nullopt;
  }
  if (verdict == ReadVerdict::kWrongSlave ||
      verdict == ReadVerdict::kBadSignature) {
    ++metrics_.reads_rejected_bad_sig;
    if (t != nullptr) {
      t->Instant(TraceRole::kClient, id(), "read.reject_sig", read.trace_id);
    }
    return std::nullopt;
  }
  // Fork-consistency: ingest the slave's signed version-vector commitment.
  // It must name the pledging slave and the pledged version; its signature
  // is checked under the certified slave key. A vector that fails any of
  // these is simply ignored — the read itself already passed the paper's
  // checks, and a missing/bogus vector only deprives the slave of the
  // chance to prove consistency (suspicious, but not falsifiable alone).
  // This runs *before* the freshness gate: a commitment is a signed fact
  // about the slave's chain whether or not the ride-along result is still
  // fresh enough to accept, and a slow-serving equivocator (split_serve)
  // must not be able to keep its commitments out of the detection pool by
  // straddling the freshness deadline.
  if (options_.params.fork_check_enabled && msg.vv.has_value() &&
      msg.vv->slave == pledge.slave &&
      msg.vv->content_version == pledge.token.content_version &&
      VerifyVersionVector(options_.params.scheme,
                          slave.cert.subject_public_key, *msg.vv,
                          &verify_cache_)) {
    AttestedVv avv;
    avv.vv = *msg.vv;
    avv.token = pledge.token;
    avv.slave_cert = slave.cert;
    ObserveVv(avv);
  }

  // Freshness: reject results older than (the client's) max_latency.
  if (verdict == ReadVerdict::kStale) {
    if (options_.params.fork_check_enabled &&
        options_.params.audit_enabled && slave.auditor != kInvalidNode) {
      // The reply is too old to accept but its pledge and commitment are
      // signature-verified facts; forwarding them keeps the auditor's
      // cross-client chain reconciliation complete even when an
      // equivocator serves its victims at the edge of the window.
      AuditSubmit submit;
      submit.trace_id = read.trace_id;
      submit.pledge = pledge;
      submit.vv = msg.vv;
      ++metrics_.pledges_forwarded;
      env()->Send(slave.auditor,
                  WithType(MsgType::kAuditSubmit, submit.Encode()));
    }
    ++metrics_.reads_rejected_stale;
    if (t != nullptr) {
      t->Instant(TraceRole::kClient, id(), "read.reject_stale", read.trace_id);
    }
    read.retry_delay = std::max(read.retry_delay, options_.retry_backoff);
    return std::nullopt;
  }
  // VerifyRead accepts only a well-formed encoding, so the rows parse.
  return *QueryResult::Decode(msg.result);
}

void Client::ResolveFanout(uint64_t request_id) {
  auto it = reads_.find(request_id);
  if (it == reads_.end()) {
    return;
  }
  PendingRead& read = it->second;
  env()->Cancel(read.timeout);
  std::vector<HeldReply>& held = read.held;
  bool agree = true;
  for (const HeldReply& h : held) {
    agree = agree && h.pledge.result_sha1 == held[0].pledge.result_sha1;
  }
  if (agree) {
    HeldReply first = std::move(held[0]);
    held.erase(held.begin());
    SettleRead(request_id, read, std::move(first));
    return;
  }
  // "If not all answers match, the client automatically double-checks,
  // since at least one of the slaves has to be malicious" (Section 4).
  ++metrics_.fanout_disagreements;
  if (TraceSink* t = env()->trace()) {
    t->Instant(TraceRole::kClient, id(), "fanout.disagree", read.trace_id,
               static_cast<int64_t>(held.size()));
  }
  read.disagreement = true;
  SendDoubleCheck(request_id, read);
}

void Client::SettleRead(uint64_t request_id, PendingRead& read,
                        HeldReply answer) {
  // Probabilistic checking: greedy clients double-check everything.
  bool double_check =
      options_.greedy ||
      rng_.NextBool(options_.params.double_check_probability);
  if (double_check) {
    read.held.insert(read.held.begin(), std::move(answer));
    SendDoubleCheck(request_id, read);
    return;
  }

  // No double-check: forward the pledge to the auditor, then accept
  // ("clients accept read results only after they have forwarded the
  // corresponding pledges to the auditor", Section 3.4).
  if (options_.params.audit_enabled && answer.auditor != kInvalidNode) {
    AuditSubmit submit;
    submit.trace_id = read.trace_id;
    submit.pledge = answer.pledge;
    // Piggyback the slave's vector so the auditor can reconcile chain
    // heads across clients (nullopt — and absent on the wire — unless
    // fork checking is on).
    submit.vv = std::move(answer.vv);
    ++metrics_.pledges_forwarded;
    if (TraceSink* t = env()->trace()) {
      t->Instant(TraceRole::kClient, id(), "pledge.forward", read.trace_id);
    }
    env()->Send(answer.auditor,
                WithType(MsgType::kAuditSubmit, submit.Encode()));
  }
  AcceptRead(request_id, answer.result, answer.pledge);
}

void Client::SendDoubleCheck(uint64_t request_id, PendingRead& read) {
  read.stage = PendingRead::Stage::kAwaitDoubleCheck;
  ++metrics_.double_checks_sent;
  if (TraceSink* t = env()->trace()) {
    t->Instant(TraceRole::kClient, id(), "dc.send", read.trace_id);
  }
  DoubleCheckRequest dc;
  dc.request_id = request_id;
  dc.trace_id = read.trace_id;
  dc.pledge = read.held[0].pledge;
  env()->Send(LaneFor(read.shard).master,
              WithType(MsgType::kDoubleCheckRequest, dc.Encode()));
  env()->Cancel(read.timeout);
  read.timeout =
      env()->ScheduleAfter(options_.params.client_timeout, [this, request_id] {
        auto it = reads_.find(request_id);
        if (it == reads_.end() ||
            it->second.stage != PendingRead::Stage::kAwaitDoubleCheck) {
          return;
        }
        // Master silent on a double-check: an agreed (already verified)
        // answer is accepted, a disagreement retried; either way re-setup
        // toward a live master.
        if (it->second.disagreement) {
          RetryRead(request_id, options_.retry_backoff);
        } else {
          AcceptHeld(request_id, 0);
        }
        MasterSuspect();
      });
}

void Client::HandleDoubleCheckReply(BytesView body) {
  auto msg = DoubleCheckReply::Decode(body);
  if (!msg.ok()) {
    return;
  }
  auto it = reads_.find(msg->request_id);
  if (it == reads_.end() ||
      it->second.stage != PendingRead::Stage::kAwaitDoubleCheck) {
    return;
  }
  PendingRead& read = it->second;
  env()->Cancel(read.timeout);

  TraceSink* t = env()->trace();
  if (!msg->served) {
    // Quota-throttled (or version unavailable). Agreed answers passed all
    // client-side checks and are accepted; a disagreement is not settled
    // without the master.
    ++metrics_.double_checks_unserved;
    if (t != nullptr) {
      t->Instant(TraceRole::kClient, id(), "dc.unserved", msg->trace_id);
    }
    if (read.disagreement) {
      RetryRead(msg->request_id, options_.retry_backoff);
    } else {
      AcceptHeld(msg->request_id, 0);
    }
    return;
  }
  if (msg->matches && !read.disagreement) {
    AcceptHeld(msg->request_id, 0);
    return;
  }
  if (!msg->matches) {
    // Caught red-handed (immediate discovery): the master has the pledge
    // from the double-check request and will exclude the slave and
    // reassign us.
    ++metrics_.double_check_mismatches;
    if (t != nullptr) {
      t->Instant(TraceRole::kClient, id(), "dc.mismatch", msg->trace_id);
    }
  }
  // Every other held pledge is judged against the master's result: each
  // that signs a different hash is its slave's own conviction. Bytes that
  // are no result at all convict nobody.
  size_t match = read.held.size();
  if (read.held.size() > 1) {
    if (!QueryResult::WellFormed(msg->correct_result)) {
      FailRead(msg->request_id);
      return;
    }
    const Bytes correct_sha1 = Sha1::Hash(msg->correct_result);
    for (size_t i = 0; i < read.held.size(); ++i) {
      const Pledge& pledge = read.held[i].pledge;
      if (pledge.result_sha1 == correct_sha1) {
        match = std::min(match, i);
      } else if (i > 0) {
        ++metrics_.accusations_sent;
        if (t != nullptr) {
          t->Instant(TraceRole::kClient, id(), "accuse", msg->trace_id,
                     static_cast<int64_t>(pledge.slave));
        }
        Accusation accusation;
        accusation.trace_id = msg->trace_id;
        accusation.pledge = pledge;
        env()->Send(LaneFor(read.shard).master,
                    WithType(MsgType::kAccusation, accusation.Encode()));
      }
    }
  }
  if (match < read.held.size()) {
    AcceptHeld(msg->request_id, match);
  } else {
    // No held answer is the master's: retry, landing on the new set.
    RetryRead(msg->request_id, options_.retry_backoff);
  }
}

void Client::AcceptHeld(uint64_t request_id, size_t index) {
  auto it = reads_.find(request_id);
  if (it == reads_.end()) {
    return;
  }
  if (index >= it->second.held.size()) {
    FailRead(request_id);  // unreachable: every caller holds the answer
    return;
  }
  // AcceptRead erases the read, and with it the held answers.
  HeldReply answer = std::move(it->second.held[index]);
  AcceptRead(request_id, answer.result, answer.pledge);
}

void Client::RetryRead(uint64_t request_id, SimTime delay) {
  auto it = reads_.find(request_id);
  if (it == reads_.end()) {
    return;
  }
  if (it->second.attempts > options_.max_read_retries) {
    ++metrics_.reads_timed_out;
    FailRead(request_id);
    return;
  }
  PendingRead& read = it->second;
  env()->Cancel(read.timeout);
  if (delay <= 0) {
    SendRead(request_id);
    return;
  }
  // The failed attempt is over: replies that straggle in while backing
  // off are ignored, and nothing of it is held.
  read.stage = PendingRead::Stage::kBackoff;
  read.held.clear();
  read.timeout =
      env()->ScheduleAfter(delay, [this, request_id] { SendRead(request_id); });
}

void Client::AcceptRead(uint64_t request_id, const QueryResult& result,
                        const Pledge& pledge) {
  auto it = reads_.find(request_id);
  if (it == reads_.end()) {
    return;
  }
  if (it->second.parent != 0) {
    AcceptShardSubread(request_id, result, pledge);
    return;
  }
  ++metrics_.reads_accepted;
  metrics_.read_latency_us.Record(env()->Now() - it->second.first_issued);
  if (TraceSink* t = env()->trace()) {
    t->Hist(TraceRole::kClient, id(), "read_rtt_us")
        .Record(env()->Now() - it->second.first_issued);
    t->SpanEnd(TraceRole::kClient, id(), "read", it->second.trace_id, 1);
  }
  env()->Cancel(it->second.timeout);
  if (on_accept) {
    on_accept(it->second.query, pledge, result);
  }
  ReadCallback cb = std::move(it->second.cb);
  reads_.erase(it);
  if (cb) {
    cb(true, result);
  }
  if (options_.mode == LoadMode::kClosedLoop) {
    ScheduleNextOp();
  }
}

void Client::AcceptShardSubread(uint64_t request_id,
                                const QueryResult& result,
                                const Pledge& pledge) {
  auto it = reads_.find(request_id);
  if (it == reads_.end()) {
    return;
  }
  ++metrics_.shard_subreads_accepted;
  env()->Cancel(it->second.timeout);
  // on_accept fires per *leg* — each leg carries its own pledge, so the
  // harness validates every shard-local result against that shard's
  // ground truth. The merged parent has no single pledge to validate.
  if (on_accept) {
    on_accept(it->second.query, pledge, result);
  }
  uint64_t parent_id = it->second.parent;
  uint32_t leg = it->second.leg;
  reads_.erase(it);

  auto mit = multireads_.find(parent_id);
  if (mit == multireads_.end()) {
    return;
  }
  MultiRead& multi = mit->second;
  multi.results[leg] = result;
  multi.pledges[leg] = pledge;
  if (--multi.remaining > 0) {
    return;
  }
  // Every leg verified and in: merge. The merge is only as fresh as its
  // *oldest* shard token — record that age as the effective bound.
  QueryResult merged = MergeShardResults(multi.query, multi.plan,
                                         multi.results);
  SimTime oldest = multi.pledges[0].token.timestamp;
  for (const Pledge& p : multi.pledges) {
    oldest = std::min(oldest, p.token.timestamp);
  }
  metrics_.merged_token_age_us.Record(env()->Now() - oldest);
  ++metrics_.reads_accepted;
  metrics_.read_latency_us.Record(env()->Now() - multi.first_issued);
  if (TraceSink* t = env()->trace()) {
    t->Hist(TraceRole::kClient, id(), "read_rtt_us")
        .Record(env()->Now() - multi.first_issued);
    t->SpanEnd(TraceRole::kClient, id(), "read", multi.trace_id, 1);
  }
  ReadCallback cb = std::move(multi.cb);
  multireads_.erase(mit);
  if (cb) {
    cb(true, merged);
  }
  if (options_.mode == LoadMode::kClosedLoop) {
    ScheduleNextOp();
  }
}

void Client::FailRead(uint64_t request_id) {
  auto it = reads_.find(request_id);
  if (it == reads_.end()) {
    return;
  }
  if (it->second.parent != 0) {
    FailMultiRead(it->second.parent);
    return;
  }
  if (TraceSink* t = env()->trace()) {
    t->SpanEnd(TraceRole::kClient, id(), "read", it->second.trace_id, 0);
  }
  env()->Cancel(it->second.timeout);
  ReadCallback cb = std::move(it->second.cb);
  reads_.erase(it);
  if (cb) {
    cb(false, QueryResult{});
  }
  if (options_.mode == LoadMode::kClosedLoop) {
    ScheduleNextOp();
  }
}

void Client::FailMultiRead(uint64_t parent_id) {
  auto mit = multireads_.find(parent_id);
  if (mit == multireads_.end()) {
    return;
  }
  // One failed leg fails the whole fan-out: there is no merged result to
  // return without it. Cancel and drop the surviving siblings.
  for (uint64_t sub_id : mit->second.sub_ids) {
    auto sit = reads_.find(sub_id);
    if (sit != reads_.end()) {
      env()->Cancel(sit->second.timeout);
      reads_.erase(sit);
    }
  }
  if (TraceSink* t = env()->trace()) {
    t->SpanEnd(TraceRole::kClient, id(), "read", mit->second.trace_id, 0);
  }
  ReadCallback cb = std::move(mit->second.cb);
  multireads_.erase(mit);
  if (cb) {
    cb(false, QueryResult{});
  }
  if (options_.mode == LoadMode::kClosedLoop) {
    ScheduleNextOp();
  }
}

// ---------------------------------------------------------------------------
// Writes (Section 3.1).
// ---------------------------------------------------------------------------

void Client::IssueWrite(WriteBatch batch, WriteCallback cb) {
  const ShardMap* map = PlanningMap();
  if (map == nullptr) {
    if (cb) {
      cb(false, 0);
    }
    return;
  }
  // Split the batch by owning shard (preserving op order within a shard).
  std::map<uint32_t, WriteBatch> by_shard;
  for (WriteOp& op : batch) {
    by_shard[map->ShardForKey(op.key)].push_back(std::move(op));
  }
  if (by_shard.size() <= 1) {
    uint32_t shard = by_shard.empty() ? 0 : by_shard.begin()->first;
    uint64_t request_id = next_request_id_++;
    PendingWrite write;
    if (!by_shard.empty()) {
      write.batch = std::move(by_shard.begin()->second);
    }
    write.shard = shard;
    write.first_issued = env()->Now();
    write.cb = std::move(cb);
    writes_.emplace(request_id, std::move(write));
    ++metrics_.writes_issued;
    if (TraceSink* t = env()->trace()) {
      t->SpanBegin(TraceRole::kClient, id(), "write",
                   MintTraceId(id(), request_id));
    }
    SendWrite(request_id);
    return;
  }
  // Cross-shard batch: one sub-write per shard. The parent reports
  // committed only if every shard-local sub-batch commits; there is no
  // cross-shard atomicity (each shard serializes independently).
  uint64_t parent_id = next_request_id_++;
  MultiWrite multi;
  multi.remaining = by_shard.size();
  multi.first_issued = env()->Now();
  multi.cb = std::move(cb);
  multi.trace_id = MintTraceId(id(), parent_id);
  ++metrics_.writes_issued;
  ++metrics_.multi_shard_writes;
  if (TraceSink* t = env()->trace()) {
    t->SpanBegin(TraceRole::kClient, id(), "write", multi.trace_id);
  }
  multiwrites_.emplace(parent_id, std::move(multi));
  for (auto& [shard, sub_batch] : by_shard) {
    uint64_t sub_id = next_request_id_++;
    PendingWrite write;
    write.batch = std::move(sub_batch);
    write.shard = shard;
    write.parent = parent_id;
    write.first_issued = env()->Now();
    writes_.emplace(sub_id, std::move(write));
    SendWrite(sub_id);
  }
}

void Client::SendWrite(uint64_t request_id) {
  auto it = writes_.find(request_id);
  if (it == writes_.end()) {
    return;
  }
  PendingWrite& write = it->second;
  ++write.attempts;
  WriteRequest msg;
  msg.request_id = request_id;
  msg.batch = write.batch;
  env()->Send(LaneFor(write.shard).master,
              WithType(MsgType::kWriteRequest, msg.Encode()));
  env()->Cancel(write.timeout);
  write.timeout =
      env()->ScheduleAfter(options_.params.client_timeout, [this, request_id] {
        auto it = writes_.find(request_id);
        if (it == writes_.end()) {
          return;
        }
        if (it->second.attempts > 3) {
          // Master presumed dead: go through setup again; the write is
          // re-sent once the new master is in place.
          it->second.attempts = 0;
          MasterSuspect();
          return;
        }
        SendWrite(request_id);
      });
}

void Client::HandleWriteReply(BytesView body) {
  auto msg = WriteReply::Decode(body);
  if (!msg.ok()) {
    return;
  }
  auto it = writes_.find(msg->request_id);
  if (it == writes_.end()) {
    return;
  }
  env()->Cancel(it->second.timeout);
  if (it->second.parent != 0) {
    // One leg of a cross-shard write: fold into the parent.
    uint64_t parent_id = it->second.parent;
    writes_.erase(it);
    if (msg->ok) {
      ++metrics_.shard_subwrites_committed;
    }
    auto mit = multiwrites_.find(parent_id);
    if (mit == multiwrites_.end()) {
      return;
    }
    MultiWrite& multi = mit->second;
    multi.all_ok = multi.all_ok && msg->ok;
    multi.max_version = std::max(multi.max_version, msg->committed_version);
    if (--multi.remaining > 0) {
      return;
    }
    if (multi.all_ok) {
      ++metrics_.writes_committed;
      metrics_.write_latency_us.Record(env()->Now() - multi.first_issued);
    } else {
      ++metrics_.writes_rejected;
    }
    if (TraceSink* t = env()->trace()) {
      t->SpanEnd(TraceRole::kClient, id(), "write", multi.trace_id,
                 multi.all_ok ? 1 : 0);
    }
    WriteCallback cb = std::move(multi.cb);
    bool all_ok = multi.all_ok;
    uint64_t max_version = multi.max_version;
    multiwrites_.erase(mit);
    if (cb) {
      cb(all_ok, max_version);
    }
    if (options_.mode == LoadMode::kClosedLoop) {
      ScheduleNextOp();
    }
    return;
  }
  if (msg->ok) {
    ++metrics_.writes_committed;
    metrics_.write_latency_us.Record(env()->Now() - it->second.first_issued);
  } else {
    ++metrics_.writes_rejected;
  }
  if (TraceSink* t = env()->trace()) {
    t->SpanEnd(TraceRole::kClient, id(), "write",
               MintTraceId(id(), msg->request_id), msg->ok ? 1 : 0);
  }
  WriteCallback cb = std::move(it->second.cb);
  uint64_t version = msg->committed_version;
  bool ok = msg->ok;
  writes_.erase(it);
  if (cb) {
    cb(ok, version);
  }
  if (options_.mode == LoadMode::kClosedLoop) {
    ScheduleNextOp();
  }
}

// ---------------------------------------------------------------------------
// Load generation.
// ---------------------------------------------------------------------------

void Client::ScheduleNextOp() {
  if (options_.mode == LoadMode::kClosedLoop) {
    env()->ScheduleAfter(options_.think_time, [this] { IssueGeneratedOp(); });
    return;
  }
  if (options_.mode == LoadMode::kOpenLoop) {
    double rate = options_.reads_per_second;
    if (options_.rate_multiplier) {
      rate *= options_.rate_multiplier(env()->Now());
    }
    rate = std::max(rate, 1e-6);
    SimTime gap = static_cast<SimTime>(
        rng_.NextExponential(static_cast<double>(kSecond) / rate));
    env()->ScheduleAfter(gap, [this] {
      IssueGeneratedOp();
      ScheduleNextOp();  // open loop: arrivals independent of completions
    });
  }
}

void Client::IssueGeneratedOp() {
  if (phase_ != Phase::kReady) {
    // Mid re-setup: postpone one think-time.
    env()->ScheduleAfter(options_.think_time, [this] { IssueGeneratedOp(); });
    return;
  }
  bool write = options_.write_fraction > 0.0 && options_.write_source &&
               rng_.NextBool(options_.write_fraction);
  if (write) {
    IssueWrite(options_.write_source(rng_));
  } else {
    IssueRead(options_.query_source(rng_));
  }
}

// ---------------------------------------------------------------------------

void Client::HandleMessage(NodeId from, const Payload& payload) {
  auto type = PeekType(payload);
  if (!type.ok()) {
    return;
  }
  BytesView body = BytesView(payload).substr(1);
  switch (*type) {
    case MsgType::kDirectoryLookupReply:
      HandleDirectoryReply(body);
      break;
    case MsgType::kClientHelloReply:
      HandleHelloReply(from, body);
      break;
    case MsgType::kReadReply:
      HandleReadReply(from, body);
      break;
    case MsgType::kDoubleCheckReply:
      HandleDoubleCheckReply(body);
      break;
    case MsgType::kWriteReply:
      HandleWriteReply(body);
      break;
    case MsgType::kReassignment:
      HandleReassignment(from, body);
      break;
    case MsgType::kBadReadNotice:
      HandleBadReadNotice(body);
      break;
    case MsgType::kVvExchange:
      HandleVvExchange(body);
      break;
    case MsgType::kPlacementReply:
      HandlePlacementReply(body);
      break;
    // Not addressed to a client; ignored by design.
    case MsgType::kDirectoryLookup:
    case MsgType::kClientHello:
    case MsgType::kReadRequest:
    case MsgType::kWriteRequest:
    case MsgType::kDoubleCheckRequest:
    case MsgType::kAccusation:
    case MsgType::kStateUpdateBatch:
    case MsgType::kKeepAlive:
    case MsgType::kSlaveAck:
    case MsgType::kAuditSubmit:
    case MsgType::kBroadcastEnvelope:
    case MsgType::kForkEvidence:
    case MsgType::kPlacementQuery:
      break;
  }
}

}  // namespace sdr
