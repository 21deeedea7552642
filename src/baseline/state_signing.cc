#include "src/baseline/state_signing.h"

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

Bytes SignedRoot::SignedBody() const {
  Writer w;
  w.Blob(std::string_view("sdr-ssroot-v1"));
  w.Blob(root);
  w.U64(version);
  w.I64(timestamp);
  return w.Take();
}

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

static void EncodeRoot(Writer& w, const SignedRoot& root) {
  w.Blob(root.root);
  w.U64(root.version);
  w.I64(root.timestamp);
  w.Blob(root.signature);
}

static SignedRoot DecodeRoot(Reader& r) {
  SignedRoot root;
  root.root = r.Blob();
  root.version = r.U64();
  root.timestamp = r.I64();
  root.signature = r.Blob();
  return root;
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
  SignedRoot root =
      MakeSignedRoot(signer_, tree_.root(), version_, env()->Now());
  Writer w;
  w.U8(kSsStateUpdate);
  EncodeRoot(w, root);
  // An empty batch refreshes the timestamp only.
  WirePut(w, WriteBatch{});
  Bytes wire = w.Take();
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

  SignedRoot root =
      MakeSignedRoot(signer_, tree_.root(), version_, env()->Now());
  Writer w;
  w.U8(kSsStateUpdate);
  EncodeRoot(w, root);
  WirePut(w, batch);
  Bytes wire = w.Take();
  for (NodeId slave : slaves_) {
    env()->Send(slave, wire);
  }
}

void SsMaster::HandleMessage(NodeId from, const Payload& payload) {
  Reader r(payload);
  uint8_t tag = r.U8();
  if (tag != kSsDynRead) {
    return;
  }
  uint64_t request_id = r.U64();
  Query query = Query::DecodeFrom(r);
  if (!r.Done()) {
    return;
  }
  auto outcome = executor_.Execute(store_, query);
  if (!outcome.ok()) {
    return;
  }
  work_units_ += outcome->cost;
  ++dynamic_queries_served_;
  SimTime service_time = options_.cost.ExecuteTime(
      outcome->cost, outcome->result.Encode().size());
  queue_->Enqueue(service_time,
                  [this, from, request_id, result = outcome->result] {
                    Writer w;
                    w.U8(kSsDynReadReply);
                    w.U64(request_id);
                    w.Blob(result.Encode());
                    env()->Send(from, w.Take());
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
  Reader r(payload);
  uint8_t tag = r.U8();
  if (tag == kSsStateUpdate) {
    SignedRoot root = DecodeRoot(r);
    WriteBatch batch = WireRead<WriteBatch>(r);
    if (!r.Done()) {
      return;
    }
    if (!batch.empty()) {
      store_.ApplyBatch(batch);
      tree_ = MerkleTree::Build(store_);
      work_units_ += store_.size();
    }
    if (!root_.has_value() || root.timestamp > root_->timestamp) {
      root_ = root;
    }
    return;
  }
  if (tag != kSsPointRead) {
    return;
  }
  uint64_t request_id = r.U64();
  std::string key = r.BlobString();
  if (!r.Done() || !root_.has_value()) {
    return;
  }
  ++point_reads_served_;
  work_units_ += 1;
  auto proof = tree_.Prove(key);
  // Proof generation: one execute unit plus hashing along the path — cheap,
  // and crucially there is NO signature on the hot path.
  SimTime service_time = options_.cost.ExecuteTime(1, 64);
  queue_->Enqueue(service_time, [this, from, request_id,
                                 proof = std::move(proof)] {
    Writer w;
    w.U8(kSsPointReadReply);
    w.U64(request_id);
    w.Bool(proof.has_value());
    if (proof.has_value()) {
      w.Blob(proof->Encode());
    }
    EncodeRoot(w, *root_);
    env()->Send(from, w.Take());
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
    Writer w;
    w.U8(kSsPointRead);
    w.U64(request_id);
    w.Blob(query.key);
    env()->Send(options_.slave, w.Take());
  } else {
    ++reads_to_master_;
    Writer w;
    w.U8(kSsDynRead);
    w.U64(request_id);
    query.EncodeTo(w);
    env()->Send(options_.master, w.Take());
  }
}

void SsClient::HandleMessage(NodeId /*from*/, const Payload& payload) {
  Reader r(payload);
  uint8_t tag = r.U8();
  if (tag == kSsDynReadReply) {
    uint64_t request_id = r.U64();
    Bytes result_enc = r.Blob();
    if (!r.Done()) {
      return;
    }
    auto it = pending_.find(request_id);
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
  if (tag != kSsPointReadReply) {
    return;
  }
  uint64_t request_id = r.U64();
  bool found = r.Bool();
  Bytes proof_enc;
  if (found) {
    proof_enc = r.Blob();
  }
  SignedRoot root = DecodeRoot(r);
  if (!r.Done()) {
    return;
  }
  auto it = pending_.find(request_id);
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
  if (!found) {
    // Absence is unverifiable in this baseline: escalate to the trusted
    // master as a dynamic read.
    Query query = it->second.query;
    Callback cb = std::move(it->second.cb);
    SimTime issued = it->second.issued;
    pending_.erase(it);
    ++reads_to_master_;
    uint64_t new_id = next_request_id_++;
    pending_[new_id] = PendingRead{query, issued, std::move(cb)};
    Writer w;
    w.U8(kSsDynRead);
    w.U64(new_id);
    query.EncodeTo(w);
    env()->Send(options_.master, w.Take());
    return;
  }
  auto proof = MerkleTree::Proof::Decode(proof_enc);
  if (!proof.has_value() || proof->key != it->second.query.key ||
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
