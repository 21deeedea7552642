#include "src/core/pledge.h"

#include "src/crypto/sha1.h"
#include "src/store/executor.h"

namespace sdr {

Bytes VersionToken::SignedBody() const {
  Writer w;
  w.Reserve(4 + 11 + 8 + 8 + 4);
  w.Blob(std::string_view("sdr-vtok-v1"));
  w.U64(content_version);
  w.I64(timestamp);
  w.U32(master);
  return w.Take();
}

void VersionToken::EncodeTo(Writer& w) const {
  w.U64(content_version);
  w.I64(timestamp);
  w.U32(master);
  w.Blob(signature);
}

VersionToken VersionToken::DecodeFrom(Reader& r) {
  VersionToken t;
  t.content_version = r.U64();
  t.timestamp = r.I64();
  t.master = r.U32();
  t.signature = r.Blob();
  return t;
}

VersionToken MakeVersionToken(const Signer& master_signer, NodeId master,
                              uint64_t version, SimTime now) {
  VersionToken t;
  t.content_version = version;
  t.timestamp = now;
  t.master = master;
  t.signature = master_signer.Sign(t.SignedBody());
  return t;
}

bool VerifyVersionToken(SignatureScheme scheme, const Bytes& master_public_key,
                        const VersionToken& token) {
  return VerifySignature(scheme, master_public_key, token.SignedBody(),
                         token.signature);
}

bool TokenIsFresh(const VersionToken& token, SimTime now,
                  SimTime max_latency) {
  return now - token.timestamp <= max_latency;
}

// Upper-bound estimate of a pledge body: tag + a typical query + hash blob
// + token with signature + ids. One reservation instead of log2(size)
// regrowth copies on the per-read signing path.
static size_t PledgeBodyEstimate(const Pledge& p) {
  return 64 + p.query.key.size() + p.query.range_lo.size() +
         p.query.range_hi.size() + p.query.pattern.size() +
         p.result_sha1.size() + p.token.signature.size() +
         p.signature.size() + 48;
}

Bytes Pledge::SignedBody() const {
  Writer w;
  w.Reserve(PledgeBodyEstimate(*this));
  w.Blob(std::string_view("sdr-pledge-v1"));
  query.EncodeTo(w);
  w.Blob(result_sha1);
  // The token, including the master's signature, is part of the pledge: it
  // pins exactly which version the slave claims to have answered at.
  token.EncodeTo(w);
  w.U32(slave);
  return w.Take();
}

void Pledge::EncodeTo(Writer& w) const {
  query.EncodeTo(w);
  w.Blob(result_sha1);
  token.EncodeTo(w);
  w.U32(slave);
  w.Blob(signature);
}

Bytes Pledge::Encode() const {
  Writer w;
  w.Reserve(PledgeBodyEstimate(*this));
  EncodeTo(w);
  return w.Take();
}

Pledge Pledge::DecodeFrom(Reader& r) {
  Pledge p;
  p.query = Query::DecodeFrom(r);
  p.result_sha1 = r.Blob();
  p.token = VersionToken::DecodeFrom(r);
  p.slave = r.U32();
  p.signature = r.Blob();
  return p;
}

Result<Pledge> Pledge::Decode(const Bytes& data) {
  Reader r(data);
  Pledge p = DecodeFrom(r);
  if (!r.Done()) {
    return Error(ErrorCode::kCorrupt, "bad pledge encoding");
  }
  return p;
}

Pledge MakePledge(const Signer& slave_signer, NodeId slave, const Query& query,
                  const Bytes& result_sha1, const VersionToken& token) {
  Pledge p;
  p.query = query;
  p.result_sha1 = result_sha1;
  p.token = token;
  p.slave = slave;
  p.signature = slave_signer.Sign(p.SignedBody());
  return p;
}

bool VerifyPledgeSignature(SignatureScheme scheme,
                           const Bytes& slave_public_key,
                           const Pledge& pledge) {
  return VerifySignature(scheme, slave_public_key, pledge.SignedBody(),
                         pledge.signature);
}

bool VerifyVersionToken(SignatureScheme scheme, const Bytes& master_public_key,
                        const VersionToken& token, VerifyCache* cache) {
  if (cache == nullptr) {
    return VerifyVersionToken(scheme, master_public_key, token);
  }
  return cache->Verify(scheme, master_public_key, token.SignedBody(),
                       token.signature);
}

bool VerifyPledgeSignature(SignatureScheme scheme,
                           const Bytes& slave_public_key, const Pledge& pledge,
                           VerifyCache* cache) {
  if (cache == nullptr) {
    return VerifyPledgeSignature(scheme, slave_public_key, pledge);
  }
  return cache->Verify(scheme, slave_public_key, pledge.SignedBody(),
                       pledge.signature);
}

Bytes BatchCommit::SignedBody() const {
  Writer w;
  w.Reserve(4 + 11 + 4 + 8 + 8 + 4 + batches_sha1.size() + 8);
  w.Blob(std::string_view("sdr-bcom-v1"));
  w.U32(master);
  w.U64(first_version);
  w.U64(last_version);
  w.Blob(batches_sha1);
  w.I64(timestamp);
  return w.Take();
}

void BatchCommit::EncodeTo(Writer& w) const {
  w.U32(master);
  w.U64(first_version);
  w.U64(last_version);
  w.Blob(batches_sha1);
  w.I64(timestamp);
  w.Blob(signature);
}

BatchCommit BatchCommit::DecodeFrom(Reader& r) {
  BatchCommit c;
  c.master = r.U32();
  c.first_version = r.U64();
  c.last_version = r.U64();
  c.batches_sha1 = r.Blob();
  c.timestamp = r.I64();
  c.signature = r.Blob();
  return c;
}

BatchCommit MakeBatchCommit(const Signer& master_signer, NodeId master,
                            uint64_t first_version, uint64_t last_version,
                            const Bytes& batches_sha1, SimTime now) {
  BatchCommit c;
  c.master = master;
  c.first_version = first_version;
  c.last_version = last_version;
  c.batches_sha1 = batches_sha1;
  c.timestamp = now;
  c.signature = master_signer.Sign(c.SignedBody());
  return c;
}

bool VerifyBatchCommit(SignatureScheme scheme, const Bytes& master_public_key,
                       const BatchCommit& commit, VerifyCache* cache) {
  if (cache == nullptr) {
    return VerifySignature(scheme, master_public_key, commit.SignedBody(),
                           commit.signature);
  }
  return cache->Verify(scheme, master_public_key, commit.SignedBody(),
                       commit.signature);
}

bool VerifyPledgeAndToken(SignatureScheme scheme, const Bytes& slave_public_key,
                          const Bytes& master_public_key, const Pledge& pledge,
                          VerifyCache* cache) {
  return VerifyPledgeSignature(scheme, slave_public_key, pledge, cache) &&
         VerifyVersionToken(scheme, master_public_key, pledge.token, cache);
}

ReadVerdict VerifyRead(SignatureScheme scheme, BytesView result,
                       const Pledge& pledge, const Certificate& slave_cert,
                       const Bytes* master_public_key, SimTime now,
                       SimTime max_latency, VerifyCache* cache) {
  if (!QueryResult::WellFormed(result) ||
      Sha1::Hash(result) != pledge.result_sha1) {
    return ReadVerdict::kHashMismatch;
  }
  if (pledge.slave != slave_cert.subject) {
    return ReadVerdict::kWrongSlave;
  }
  if (master_public_key == nullptr ||
      !VerifyPledgeAndToken(scheme, slave_cert.subject_public_key,
                            *master_public_key, pledge, cache)) {
    return ReadVerdict::kBadSignature;
  }
  if (!TokenIsFresh(pledge.token, now, max_latency)) {
    return ReadVerdict::kStale;
  }
  return ReadVerdict::kAccepted;
}

}  // namespace sdr
