#include "bench/baselines/state_signing.h"

namespace sdr {

namespace {
// Private message tags for the baseline protocol.
enum SsMsg : uint8_t {
  kSsPointRead = 1,
  kSsPointReadReply = 2,
  kSsDynRead = 3,
  kSsDynReadReply = 4,
  kSsStateUpdate = 5,
};
}  // namespace

SignedRoot MakeSignedRoot(const Signer& signer, const Bytes& root,
                          uint64_t version, SimTime now) {
  SignedRoot sr;
  sr.root = root;
  sr.version = version;
  sr.timestamp = now;
  sr.signature = signer.Sign(sr.SignedBody());
  return sr;
}

bool VerifySignedRoot(SignatureScheme scheme, const Bytes& public_key,
                      const SignedRoot& root) {
  return VerifySignature(scheme, public_key, root.SignedBody(),
                         root.signature);
}

// ---------------------------------------------------------------------------
// SsMaster
// ---------------------------------------------------------------------------

SsMaster::SsMaster(Options options)
    : options_(std::move(options)), signer_(options_.key_pair) {}

void SsMaster::Start() {
  queue_ = std::make_unique<ServiceQueue>(env(), options_.cost.master_speed);
  // Periodically re-sign the root so slave-held roots stay fresh even
  // without writes (the keep-alive analogue).
  RefreshTick();
}

void SsMaster::RefreshTick() {
  env()->ScheduleAfter(options_.params.keepalive_period,
                       [this] { RefreshTick(); });
  if (!up()) {
    return;
  }
  RefreshRoot();
}

void SsMaster::SetContent(const DocumentStore& content) {
  store_ = content;
  tree_ = MerkleTree::Build(store_);
}

void SsMaster::AddSlave(NodeId slave) {
  slaves_.push_back(slave);
}

void SsMaster::RefreshRoot() {
  // An empty batch refreshes the timestamp only.
  Bytes wire = WireEncodeTagged(
      kSsStateUpdate,
      SsStateUpdate{
          MakeSignedRoot(signer_, tree_.root(), version_, env()->Now()), {}});
  for (NodeId slave : slaves_) {
    env()->Send(slave, wire);
  }
}

void SsMaster::CommitWrite(const WriteBatch& batch) {
  store_.ApplyBatch(batch);
  ++version_;
  // The whole-tree rebuild is the honest cost of this baseline's write
  // path; charge it.
  tree_ = MerkleTree::Build(store_);
  work_units_ += store_.size();

  Bytes wire = WireEncodeTagged(
      kSsStateUpdate,
      SsStateUpdate{
          MakeSignedRoot(signer_, tree_.root(), version_, env()->Now()),
          batch});
  for (NodeId slave : slaves_) {
    env()->Send(slave, wire);
  }
}

void SsMaster::HandleMessage(NodeId from, const Payload& payload) {
  auto msg = WireDecodeTagged<BaselineRead>(kSsDynRead, payload.view());
  if (!msg.ok()) {
    return;
  }
  auto outcome = executor_.Execute(store_, msg->query);
  if (!outcome.ok()) {
    return;
  }
  work_units_ += outcome->cost;
  ++dynamic_queries_served_;
  SimTime service_time = options_.cost.ExecuteTime(
      outcome->cost, outcome->result.Encode().size());
  queue_->Enqueue(service_time, [this, from, request_id = msg->request_id,
                                 result = outcome->result] {
    env()->Send(from, WireEncodeTagged(kSsDynReadReply,
                                       BaselineReadReply{request_id,
                                                         result.Encode()}));
  });
}

// ---------------------------------------------------------------------------
// SsSlave
// ---------------------------------------------------------------------------

SsSlave::SsSlave(Options options) : options_(std::move(options)) {}

void SsSlave::Start() {
  queue_ = std::make_unique<ServiceQueue>(env(), options_.cost.slave_speed);
}

void SsSlave::SetContent(const DocumentStore& content,
                         const SignedRoot& root) {
  store_ = content;
  tree_ = MerkleTree::Build(store_);
  root_ = root;
}

void SsSlave::HandleMessage(NodeId from, const Payload& payload) {
  if (auto update = WireDecodeTagged<SsStateUpdate>(kSsStateUpdate,
                                                     payload.view());
      update.ok()) {
    if (!update->batch.empty()) {
      store_.ApplyBatch(update->batch);
      tree_ = MerkleTree::Build(store_);
      work_units_ += store_.size();
    }
    if (!root_.has_value() || update->root.timestamp > root_->timestamp) {
      root_ = std::move(update->root);
    }
    return;
  }
  auto msg = WireDecodeTagged<SsPointRead>(kSsPointRead, payload.view());
  if (!msg.ok() || !root_.has_value()) {
    return;
  }
  ++point_reads_served_;
  work_units_ += 1;
  std::optional<Bytes> proof;
  if (auto p = tree_.Prove(msg->key)) {
    proof = p->Encode();
  }
  // Proof generation: one execute unit plus hashing along the path — cheap,
  // and crucially there is NO signature on the hot path.
  SimTime service_time = options_.cost.ExecuteTime(1, 64);
  queue_->Enqueue(service_time, [this, from, request_id = msg->request_id,
                                 proof = std::move(proof)] {
    env()->Send(from, WireEncodeTagged(kSsPointReadReply,
                                       SsPointReadReply{request_id, proof,
                                                        *root_}));
  });
}

// ---------------------------------------------------------------------------
// SsClient
// ---------------------------------------------------------------------------

SsClient::SsClient(Options options) : options_(std::move(options)) {}

void SsClient::IssueRead(const Query& query, Callback cb) {
  uint64_t request_id = next_request_id_++;
  pending_[request_id] = PendingRead{query, env()->Now(), std::move(cb)};
  if (query.kind == QueryKind::kGet) {
    ++reads_to_slave_;
    env()->Send(options_.slave,
                WireEncodeTagged(kSsPointRead,
                                 SsPointRead{request_id, query.key}));
  } else {
    ++reads_to_master_;
    env()->Send(options_.master,
                WireEncodeTagged(kSsDynRead, BaselineRead{request_id, query}));
  }
}

void SsClient::HandleMessage(NodeId /*from*/, const Payload& payload) {
  if (auto reply = WireDecodeTagged<BaselineReadReply>(kSsDynReadReply,
                                                        payload.view());
      reply.ok()) {
    auto it = pending_.find(reply->request_id);
    if (it == pending_.end()) {
      return;
    }
    // Executed by a trusted master: accepted as-is.
    ++reads_accepted_;
    latency_us_.Record(env()->Now() - it->second.issued);
    Callback cb = std::move(it->second.cb);
    pending_.erase(it);
    if (cb) {
      cb(true);
    }
    return;
  }
  auto msg =
      WireDecodeTagged<SsPointReadReply>(kSsPointReadReply, payload.view());
  if (!msg.ok()) {
    return;
  }
  const SignedRoot& root = msg->root;
  auto it = pending_.find(msg->request_id);
  if (it == pending_.end()) {
    return;
  }
  // Root must be authentic and fresh.
  if (!VerifySignedRoot(options_.params.scheme, options_.master_public_key,
                        root) ||
      env()->Now() - root.timestamp > options_.params.max_latency) {
    ++proof_failures_;
    pending_.erase(it);
    return;
  }
  if (!msg->proof.has_value()) {
    // Absence is unverifiable in this baseline: escalate to the trusted
    // master as a dynamic read.
    Query query = it->second.query;
    Callback cb = std::move(it->second.cb);
    SimTime issued = it->second.issued;
    pending_.erase(it);
    ++reads_to_master_;
    uint64_t new_id = next_request_id_++;
    pending_[new_id] = PendingRead{query, issued, std::move(cb)};
    env()->Send(options_.master,
                WireEncodeTagged(kSsDynRead, BaselineRead{new_id, query}));
    return;
  }
  auto proof = MerkleTree::Proof::Decode(*msg->proof);
  if (!proof.ok() || proof->key != it->second.query.key ||
      !MerkleTree::VerifyProof(*proof, root.root)) {
    ++proof_failures_;
    pending_.erase(it);
    return;
  }
  ++reads_accepted_;
  latency_us_.Record(env()->Now() - it->second.issued);
  Callback cb = std::move(it->second.cb);
  pending_.erase(it);
  if (cb) {
    cb(true);
  }
}

}  // namespace sdr
