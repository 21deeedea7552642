#include "src/core/multiread_client.h"

#include "src/crypto/sha1.h"
#include "src/trace/trace.h"

namespace sdr {

MultiReadClient::MultiReadClient(Options options)
    : options_(std::move(options)), rng_(options_.rng_seed) {}

void MultiReadClient::Start() {
  rng_ = Rng(options_.rng_seed ^ (static_cast<uint64_t>(id()) << 32));
}

const Certificate* MultiReadClient::CertFor(NodeId slave) const {
  for (const Certificate& cert : options_.slave_certs) {
    if (cert.subject == slave) {
      return &cert;
    }
  }
  return nullptr;
}

void MultiReadClient::IssueRead(const Query& query, Callback cb) {
  uint64_t request_id = next_request_id_++;
  PendingRead read;
  read.query = query;
  read.issued = env()->Now();
  read.expected = options_.slave_certs.size();
  read.cb = std::move(cb);
  ++metrics_.reads_issued;
  if (TraceSink* t = env()->trace()) {
    t->SpanBegin(TraceRole::kClient, id(), "read",
                 MintTraceId(id(), request_id));
  }

  ReadRequest msg;
  msg.request_id = request_id;
  msg.trace_id = MintTraceId(id(), request_id);
  msg.query = query;
  Bytes wire = WithType(MsgType::kReadRequest, msg.Encode());
  for (const Certificate& cert : options_.slave_certs) {
    env()->Send(cert.subject, wire);
  }
  read.timeout = env()->ScheduleAfter(
      options_.params.client_timeout,
      [this, request_id] { Resolve(request_id); });
  pending_.emplace(request_id, std::move(read));
}

void MultiReadClient::HandleMessage(NodeId from, const Payload& payload) {
  auto type = PeekType(payload);
  if (!type.ok()) {
    return;
  }
  BytesView body = BytesView(payload).substr(1);
  switch (*type) {
    case MsgType::kReadReply:
      HandleReadReply(from, body);
      break;
    case MsgType::kDoubleCheckReply:
      HandleDoubleCheckReply(body);
      break;
    // The multi-read harness only ever receives read traffic; everything
    // else is ignored by design.
    case MsgType::kDirectoryLookup:
    case MsgType::kDirectoryLookupReply:
    case MsgType::kClientHello:
    case MsgType::kClientHelloReply:
    case MsgType::kReadRequest:
    case MsgType::kWriteRequest:
    case MsgType::kWriteReply:
    case MsgType::kDoubleCheckRequest:
    case MsgType::kAccusation:
    case MsgType::kReassignment:
    case MsgType::kKeepAlive:
    case MsgType::kSlaveAck:
    case MsgType::kAuditSubmit:
    case MsgType::kBroadcastEnvelope:
    case MsgType::kBadReadNotice:
    case MsgType::kVvExchange:
    case MsgType::kForkEvidence:
    case MsgType::kPlacementQuery:
    case MsgType::kPlacementReply:
    case MsgType::kStateUpdateBatch:
      break;
  }
}

void MultiReadClient::HandleReadReply(NodeId from, BytesView body) {
  auto msg = ReadReply::Decode(body);
  if (!msg.ok()) {
    return;
  }
  auto it = pending_.find(msg->request_id);
  if (it == pending_.end() || it->second.double_checking) {
    return;
  }
  PendingRead& read = it->second;

  const Certificate* cert = CertFor(from);
  if (cert == nullptr) {
    return;
  }
  if (!msg->ok) {
    ++read.declines;
    if (read.replies.size() + read.declines >= read.expected) {
      env()->Cancel(read.timeout);
      Resolve(msg->request_id);
    }
    return;
  }
  const Pledge& pledge = msg->pledge;
  // Per-reply verification is the base protocol's.
  auto master_key = options_.master_keys.find(pledge.token.master);
  if (VerifyRead(options_.params.scheme, msg->result, pledge, *cert,
                 master_key == options_.master_keys.end() ? nullptr
                                                          : &master_key->second,
                 env()->Now(), options_.params.max_latency,
                 nullptr) != ReadVerdict::kAccepted) {
    return;
  }
  // VerifyRead accepts only a well-formed encoding, so the rows parse.
  read.replies[from] = {*QueryResult::Decode(msg->result), pledge};
  if (read.replies.size() + read.declines >= read.expected) {
    env()->Cancel(read.timeout);
    Resolve(msg->request_id);
  }
}

void MultiReadClient::Resolve(uint64_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end() || it->second.double_checking) {
    return;
  }
  PendingRead& read = it->second;
  if (read.replies.empty()) {
    Fail(request_id, MintTraceId(id(), request_id));
    return;
  }
  // "If all the answers are identical, the client proceeds as in the
  // original algorithm" — declining slaves gave no answer, so unanimity is
  // over the answers received. Replies for different (fresh) versions can
  // legitimately differ; treat hash disagreement as suspicion anyway — the
  // double-check resolves it either way.
  bool unanimous = true;
  const Bytes& first_hash = read.replies.begin()->second.second.result_sha1;
  for (const auto& [slave, reply] : read.replies) {
    if (reply.second.result_sha1 != first_hash) {
      unanimous = false;
      break;
    }
  }

  if (unanimous && !rng_.NextBool(options_.params.double_check_probability)) {
    ++metrics_.unanimous;
    const auto& [result, pledge] = read.replies.begin()->second;
    if (options_.params.audit_enabled && options_.auditor != kInvalidNode) {
      AuditSubmit submit;
      submit.trace_id = MintTraceId(id(), request_id);
      submit.pledge = pledge;
      if (TraceSink* t = env()->trace()) {
        t->Instant(TraceRole::kClient, id(), "pledge.forward",
                   submit.trace_id);
      }
      env()->Send(options_.auditor,
                  WithType(MsgType::kAuditSubmit, submit.Encode()));
    }
    Accept(request_id, result, pledge);
    return;
  }

  // Disagreement (or sampled): mandatory double-check with the master,
  // using the first pledge as the reference.
  if (!unanimous) {
    ++metrics_.disagreements;
  }
  read.double_checking = true;
  ++metrics_.double_checks_sent;
  if (TraceSink* t = env()->trace()) {
    t->Instant(TraceRole::kClient, id(), "dc.send",
               MintTraceId(id(), request_id));
  }
  DoubleCheckRequest dc;
  dc.request_id = request_id;
  dc.trace_id = MintTraceId(id(), request_id);
  dc.pledge = read.replies.begin()->second.second;
  env()->Send(options_.master,
              WithType(MsgType::kDoubleCheckRequest, dc.Encode()));
}

void MultiReadClient::HandleDoubleCheckReply(BytesView body) {
  auto msg = DoubleCheckReply::Decode(body);
  if (!msg.ok()) {
    return;
  }
  auto it = pending_.find(msg->request_id);
  if (it == pending_.end() || !it->second.double_checking) {
    return;
  }
  PendingRead& read = it->second;

  if (!msg->served) {
    // Cannot establish the truth: fail the read (rare).
    Fail(msg->request_id, msg->trace_id);
    return;
  }
  // The master's answer is the truth. Accuse every slave whose pledge
  // disagrees with it — their own signatures convict them. Bytes that are
  // no result at all convict nobody.
  auto correct_result = QueryResult::Decode(msg->correct_result);
  if (!correct_result.ok()) {
    Fail(msg->request_id, msg->trace_id);
    return;
  }
  Bytes correct_hash = Sha1::Hash(msg->correct_result);
  Pledge reference;
  bool have_reference = false;
  for (const auto& [slave, reply] : read.replies) {
    if (reply.second.result_sha1 != correct_hash) {
      ++metrics_.accusations_sent;
      if (TraceSink* t = env()->trace()) {
        t->Instant(TraceRole::kClient, id(), "accuse", msg->trace_id,
                   static_cast<int64_t>(slave));
      }
      Accusation accusation;
      accusation.trace_id = msg->trace_id;
      accusation.pledge = reply.second;
      env()->Send(options_.master,
                  WithType(MsgType::kAccusation, accusation.Encode()));
    } else if (!have_reference) {
      reference = reply.second;
      have_reference = true;
    }
  }
  if (!have_reference) {
    // No slave matched the master; synthesize acceptance on the master's
    // result with the first pledge's version.
    reference = read.replies.begin()->second.second;
  }
  Accept(msg->request_id, *correct_result, reference);
}

void MultiReadClient::Accept(uint64_t request_id, const QueryResult& result,
                             const Pledge& pledge) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    return;
  }
  ++metrics_.reads_accepted;
  if (TraceSink* t = env()->trace()) {
    t->Hist(TraceRole::kClient, id(), "read_rtt_us")
        .Record(env()->Now() - it->second.issued);
    t->SpanEnd(TraceRole::kClient, id(), "read",
               MintTraceId(id(), request_id), 1);
  }
  env()->Cancel(it->second.timeout);
  if (on_accept) {
    on_accept(it->second.query, pledge.token.content_version, result);
  }
  Callback cb = std::move(it->second.cb);
  pending_.erase(it);
  if (cb) {
    cb(true, result);
  }
}

void MultiReadClient::Fail(uint64_t request_id, uint64_t trace_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) {
    return;
  }
  ++metrics_.reads_failed;
  if (TraceSink* t = env()->trace()) {
    t->SpanEnd(TraceRole::kClient, id(), "read", trace_id, 0);
  }
  Callback cb = std::move(it->second.cb);
  pending_.erase(it);
  if (cb) {
    cb(false, QueryResult{});
  }
}

}  // namespace sdr
