#include "src/core/messages.h"

#include "src/crypto/sha1.h"

namespace sdr {

namespace {
// Shared tail check for all Decode() functions.
template <typename T>
Result<T> FinishDecode(T msg, const Reader& r) {
  if (!r.Done()) {
    return Error(ErrorCode::kCorrupt, "bad message encoding");
  }
  return msg;
}

void EncodeCerts(Writer& w, const std::vector<Certificate>& certs) {
  w.U32(static_cast<uint32_t>(certs.size()));
  for (const Certificate& c : certs) {
    c.EncodeTo(w);
  }
}

std::vector<Certificate> DecodeCerts(Reader& r) {
  uint32_t n = r.U32();
  std::vector<Certificate> certs;
  certs.reserve(std::min<uint32_t>(n, 256));
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    certs.push_back(Certificate::DecodeFrom(r));
  }
  return certs;
}

void EncodeSlaveSet(Writer& w, const std::vector<AssignedSlave>& slaves) {
  w.U32(static_cast<uint32_t>(slaves.size()));
  for (const AssignedSlave& s : slaves) {
    s.EncodeTo(w);
  }
}

std::vector<AssignedSlave> DecodeSlaveSet(Reader& r) {
  uint32_t n = r.U32();
  std::vector<AssignedSlave> slaves;
  slaves.reserve(std::min<uint32_t>(n, 256));
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    slaves.push_back(AssignedSlave::DecodeFrom(r));
  }
  return slaves;
}

// Optional trailing version vector (fork checking). Writing nothing when
// absent keeps disabled-mode encodings byte-identical to the fork-unaware
// wire format; the decoder keys off the remaining byte count, which only
// works because the vector is the last field of its messages.
void EncodeOptionalVv(Writer& w, const std::optional<VersionVector>& vv) {
  if (vv.has_value()) {
    vv->EncodeTo(w);
  }
}

std::optional<VersionVector> DecodeOptionalVv(Reader& r) {
  if (r.remaining() == 0) {
    return std::nullopt;
  }
  return VersionVector::DecodeFrom(r);
}

void EncodeAvvs(Writer& w, const std::vector<AttestedVv>& entries) {
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const AttestedVv& e : entries) {
    e.EncodeTo(w);
  }
}

std::vector<AttestedVv> DecodeAvvs(Reader& r) {
  uint32_t n = r.U32();
  std::vector<AttestedVv> entries;
  entries.reserve(std::min<uint32_t>(n, 256));
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    entries.push_back(AttestedVv::DecodeFrom(r));
  }
  return entries;
}
}  // namespace

const Bytes& EmptyResultEncoding() {
  static const Bytes kEmpty = QueryResult{}.Encode();
  return kEmpty;
}

Result<MsgType> PeekType(BytesView payload) {
  if (payload.empty()) {
    return Error(ErrorCode::kCorrupt, "empty payload");
  }
  return static_cast<MsgType>(payload[0]);
}

Bytes WithType(MsgType type, const Bytes& body) {
  Bytes out;
  out.reserve(body.size() + 1);
  out.push_back(static_cast<uint8_t>(type));
  Append(out, body);
  return out;
}

Result<TobPayloadType> PeekTobType(BytesView payload) {
  if (payload.empty()) {
    return Error(ErrorCode::kCorrupt, "empty TOB payload");
  }
  return static_cast<TobPayloadType>(payload[0]);
}

Bytes WithTobType(TobPayloadType type, const Bytes& body) {
  Bytes out;
  out.reserve(body.size() + 1);
  out.push_back(static_cast<uint8_t>(type));
  Append(out, body);
  return out;
}

// Bodies below never include the leading type byte; senders use WithType()
// and receivers strip it before calling Decode.

Bytes DirectoryLookup::Encode() const {
  Writer w;
  w.Blob(content_public_key);
  return w.Take();
}

Result<DirectoryLookup> DirectoryLookup::Decode(BytesView body) {
  Reader r(body);
  DirectoryLookup m;
  m.content_public_key = r.Blob();
  return FinishDecode(std::move(m), r);
}

Bytes DirectoryLookupReply::Encode() const {
  Writer w;
  EncodeCerts(w, master_certs);
  return w.Take();
}

Result<DirectoryLookupReply> DirectoryLookupReply::Decode(BytesView body) {
  Reader r(body);
  DirectoryLookupReply m;
  m.master_certs = DecodeCerts(r);
  return FinishDecode(std::move(m), r);
}

Bytes ClientHello::Encode() const {
  Writer w;
  w.Blob(client_nonce);
  return w.Take();
}

Result<ClientHello> ClientHello::Decode(BytesView body) {
  Reader r(body);
  ClientHello m;
  m.client_nonce = r.Blob();
  return FinishDecode(std::move(m), r);
}

void AssignedSlave::EncodeTo(Writer& w) const {
  cert.EncodeTo(w);
  w.U32(auditor);
}

AssignedSlave AssignedSlave::DecodeFrom(Reader& r) {
  AssignedSlave m;
  m.cert = Certificate::DecodeFrom(r);
  m.auditor = r.U32();
  return m;
}

Bytes ClientHelloReply::SignedBody(const Bytes& client_nonce) const {
  Writer w;
  w.Blob(std::string_view("sdr-hello-v2"));
  w.Blob(client_nonce);
  w.Blob(server_nonce);
  w.U64(seq);
  EncodeSlaveSet(w, slaves);
  return w.Take();
}

Bytes ClientHelloReply::Encode() const {
  Writer w;
  w.Blob(server_nonce);
  w.U64(seq);
  EncodeSlaveSet(w, slaves);
  w.Blob(signature);
  return w.Take();
}

Result<ClientHelloReply> ClientHelloReply::Decode(BytesView body) {
  Reader r(body);
  ClientHelloReply m;
  m.server_nonce = r.Blob();
  m.seq = r.U64();
  m.slaves = DecodeSlaveSet(r);
  m.signature = r.Blob();
  // A master never opens a client with an empty read set.
  if (m.slaves.empty()) {
    return Error(ErrorCode::kCorrupt, "empty read set");
  }
  return FinishDecode(std::move(m), r);
}

Bytes ReadRequest::Encode() const {
  Writer w;
  w.U64(request_id);
  w.U64(trace_id);
  query.EncodeTo(w);
  return w.Take();
}

Result<ReadRequest> ReadRequest::Decode(BytesView body) {
  Reader r(body);
  ReadRequest m;
  m.request_id = r.U64();
  m.trace_id = r.U64();
  m.query = Query::DecodeFrom(r);
  return FinishDecode(std::move(m), r);
}

Bytes ReadReply::Encode() const {
  Writer w;
  w.U64(request_id);
  w.U64(trace_id);
  w.Bool(ok);
  w.Blob(result);
  pledge.EncodeTo(w);
  EncodeOptionalVv(w, vv);
  return w.Take();
}

Result<ReadReply> ReadReply::Decode(BytesView body) {
  Reader r(body);
  ReadReply m;
  m.request_id = r.U64();
  m.trace_id = r.U64();
  m.ok = r.Bool();
  m.result = r.Blob();
  m.pledge = Pledge::DecodeFrom(r);
  m.vv = DecodeOptionalVv(r);
  return FinishDecode(std::move(m), r);
}

Bytes WriteRequest::Encode() const {
  Writer w;
  w.U64(request_id);
  EncodeBatch(w, batch);
  return w.Take();
}

Result<WriteRequest> WriteRequest::Decode(BytesView body) {
  Reader r(body);
  WriteRequest m;
  m.request_id = r.U64();
  m.batch = DecodeBatch(r);
  return FinishDecode(std::move(m), r);
}

Bytes WriteReply::Encode() const {
  Writer w;
  w.U64(request_id);
  w.Bool(ok);
  w.U64(committed_version);
  w.U8(error_code);
  return w.Take();
}

Result<WriteReply> WriteReply::Decode(BytesView body) {
  Reader r(body);
  WriteReply m;
  m.request_id = r.U64();
  m.ok = r.Bool();
  m.committed_version = r.U64();
  m.error_code = r.U8();
  return FinishDecode(std::move(m), r);
}

Bytes DoubleCheckRequest::Encode() const {
  Writer w;
  w.U64(request_id);
  w.U64(trace_id);
  pledge.EncodeTo(w);
  return w.Take();
}

Result<DoubleCheckRequest> DoubleCheckRequest::Decode(BytesView body) {
  Reader r(body);
  DoubleCheckRequest m;
  m.request_id = r.U64();
  m.trace_id = r.U64();
  m.pledge = Pledge::DecodeFrom(r);
  return FinishDecode(std::move(m), r);
}

Bytes DoubleCheckReply::Encode() const {
  Writer w;
  w.U64(request_id);
  w.U64(trace_id);
  w.Bool(served);
  w.Bool(matches);
  w.Blob(correct_result);
  return w.Take();
}

Result<DoubleCheckReply> DoubleCheckReply::Decode(BytesView body) {
  Reader r(body);
  DoubleCheckReply m;
  m.request_id = r.U64();
  m.trace_id = r.U64();
  m.served = r.Bool();
  m.matches = r.Bool();
  m.correct_result = r.Blob();
  return FinishDecode(std::move(m), r);
}

Bytes Accusation::Encode() const {
  Writer w;
  w.U64(trace_id);
  pledge.EncodeTo(w);
  return w.Take();
}

Result<Accusation> Accusation::Decode(BytesView body) {
  Reader r(body);
  Accusation m;
  m.trace_id = r.U64();
  m.pledge = Pledge::DecodeFrom(r);
  return FinishDecode(std::move(m), r);
}

Bytes Reassignment::SignedBody() const {
  Writer w;
  w.Blob(std::string_view("sdr-reassign-v2"));
  w.U64(seq);
  EncodeSlaveSet(w, slaves);
  w.U32(excluded_slave);
  return w.Take();
}

Bytes Reassignment::Encode() const {
  Writer w;
  // Leads the encoding like the other evidence-path messages, and stays
  // outside SignedBody(): the trace id is observability metadata, not a
  // protocol commitment, so it must not invalidate signatures.
  w.U64(trace_id);
  w.U64(seq);
  EncodeSlaveSet(w, slaves);
  w.U32(excluded_slave);
  w.Blob(signature);
  return w.Take();
}

Result<Reassignment> Reassignment::Decode(BytesView body) {
  Reader r(body);
  Reassignment m;
  m.trace_id = r.U64();
  m.seq = r.U64();
  m.slaves = DecodeSlaveSet(r);
  m.excluded_slave = r.U32();
  m.signature = r.Blob();
  return FinishDecode(std::move(m), r);
}

Bytes KeepAlive::Encode() const {
  Writer w;
  token.EncodeTo(w);
  return w.Take();
}

Result<KeepAlive> KeepAlive::Decode(BytesView body) {
  Reader r(body);
  KeepAlive m;
  m.token = VersionToken::DecodeFrom(r);
  return FinishDecode(std::move(m), r);
}

Bytes SlaveAck::Encode() const {
  Writer w;
  w.U64(applied_version);
  return w.Take();
}

Result<SlaveAck> SlaveAck::Decode(BytesView body) {
  Reader r(body);
  SlaveAck m;
  m.applied_version = r.U64();
  return FinishDecode(std::move(m), r);
}

Bytes AuditSubmit::Encode() const {
  Writer w;
  w.U64(trace_id);
  pledge.EncodeTo(w);
  EncodeOptionalVv(w, vv);
  return w.Take();
}

Result<AuditSubmit> AuditSubmit::Decode(BytesView body) {
  Reader r(body);
  AuditSubmit m;
  m.trace_id = r.U64();
  m.pledge = Pledge::DecodeFrom(r);
  m.vv = DecodeOptionalVv(r);
  return FinishDecode(std::move(m), r);
}

Bytes BadReadNotice::Encode() const {
  Writer w;
  w.U64(trace_id);
  pledge.EncodeTo(w);
  w.Blob(correct_sha1);
  return w.Take();
}

Result<BadReadNotice> BadReadNotice::Decode(BytesView body) {
  Reader r(body);
  BadReadNotice m;
  m.trace_id = r.U64();
  m.pledge = Pledge::DecodeFrom(r);
  m.correct_sha1 = r.Blob();
  return FinishDecode(std::move(m), r);
}

Bytes VvExchange::Encode() const {
  Writer w;
  w.U32(origin);
  EncodeAvvs(w, entries);
  return w.Take();
}

Result<VvExchange> VvExchange::Decode(BytesView body) {
  Reader r(body);
  VvExchange m;
  m.origin = r.U32();
  m.entries = DecodeAvvs(r);
  return FinishDecode(std::move(m), r);
}

Bytes ForkEvidence::Encode() const {
  Writer w;
  w.U64(trace_id);
  chain.EncodeTo(w);
  return w.Take();
}

Result<ForkEvidence> ForkEvidence::Decode(BytesView body) {
  Reader r(body);
  ForkEvidence m;
  m.trace_id = r.U64();
  m.chain = EvidenceChain::DecodeFrom(r);
  return FinishDecode(std::move(m), r);
}

Bytes PlacementQuery::Encode() const {
  Writer w;
  w.Blob(content_public_key);
  return w.Take();
}

Result<PlacementQuery> PlacementQuery::Decode(BytesView body) {
  Reader r(body);
  PlacementQuery m;
  m.content_public_key = r.Blob();
  return FinishDecode(std::move(m), r);
}

Bytes PlacementReply::Encode() const {
  Writer w;
  w.Bool(found);
  placement.EncodeTo(w);
  return w.Take();
}

Result<PlacementReply> PlacementReply::Decode(BytesView body) {
  Reader r(body);
  PlacementReply m;
  m.found = r.Bool();
  m.placement = ShardPlacement::DecodeFrom(r);
  return FinishDecode(std::move(m), r);
}

Bytes StateUpdateBatch::BatchesSha1() const {
  Sha1 digest;
  for (const WriteBatch& batch : batches) {
    Writer w;
    EncodeBatch(w, batch);
    digest.Update(w.Take());
  }
  return digest.Final();
}

Bytes StateUpdateBatch::Encode() const {
  Writer w;
  w.U64(first_version);
  w.U32(static_cast<uint32_t>(batches.size()));
  for (const WriteBatch& b : batches) {
    EncodeBatch(w, b);
  }
  token.EncodeTo(w);
  commit.EncodeTo(w);
  return w.Take();
}

Result<StateUpdateBatch> StateUpdateBatch::Decode(BytesView body) {
  Reader r(body);
  StateUpdateBatch m;
  m.first_version = r.U64();
  uint32_t n = r.U32();
  m.batches.reserve(std::min<uint32_t>(n, 256));
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    m.batches.push_back(DecodeBatch(r));
  }
  m.token = VersionToken::DecodeFrom(r);
  m.commit = BatchCommit::DecodeFrom(r);
  return FinishDecode(std::move(m), r);
}

Bytes TobWrite::Encode() const {
  Writer w;
  w.U32(origin_master);
  w.U32(client);
  w.U64(request_id);
  EncodeBatch(w, batch);
  return w.Take();
}

Result<TobWrite> TobWrite::Decode(BytesView body) {
  Reader r(body);
  TobWrite m;
  m.origin_master = r.U32();
  m.client = r.U32();
  m.request_id = r.U64();
  m.batch = DecodeBatch(r);
  return FinishDecode(std::move(m), r);
}

Bytes TobWriteBundle::Encode() const {
  Writer w;
  w.U32(static_cast<uint32_t>(writes.size()));
  for (const TobWrite& tw : writes) {
    w.U32(tw.origin_master);
    w.U32(tw.client);
    w.U64(tw.request_id);
    EncodeBatch(w, tw.batch);
  }
  return w.Take();
}

Result<TobWriteBundle> TobWriteBundle::Decode(BytesView body) {
  Reader r(body);
  TobWriteBundle m;
  uint32_t n = r.U32();
  m.writes.reserve(std::min<uint32_t>(n, 256));
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    TobWrite tw;
    tw.origin_master = r.U32();
    tw.client = r.U32();
    tw.request_id = r.U64();
    tw.batch = DecodeBatch(r);
    m.writes.push_back(std::move(tw));
  }
  return FinishDecode(std::move(m), r);
}

Bytes TobGossip::Encode() const {
  Writer w;
  w.U32(master);
  EncodeCerts(w, slave_certs);
  // Optional trailing field, like the version vectors above: a gossip with
  // no exclusions encodes exactly as before the field existed.
  if (!excluded_slaves.empty()) {
    w.U32(static_cast<uint32_t>(excluded_slaves.size()));
    for (NodeId slave : excluded_slaves) {
      w.U32(slave);
    }
  }
  return w.Take();
}

Result<TobGossip> TobGossip::Decode(BytesView body) {
  Reader r(body);
  TobGossip m;
  m.master = r.U32();
  m.slave_certs = DecodeCerts(r);
  if (r.remaining() > 0) {
    uint32_t n = r.U32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      m.excluded_slaves.push_back(r.U32());
    }
  }
  return FinishDecode(std::move(m), r);
}

}  // namespace sdr
