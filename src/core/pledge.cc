#include "src/core/pledge.h"

#include "src/crypto/sha1.h"
#include "src/store/executor.h"

namespace sdr {

namespace {

// One signature check, through the cache when one is given.
bool VerifyThrough(VerifyCache* cache, SignatureScheme scheme,
                   const Bytes& public_key, const Bytes& body,
                   const Bytes& signature) {
  if (cache == nullptr) {
    return VerifySignature(scheme, public_key, body, signature);
  }
  return cache->Verify(scheme, public_key, body, signature);
}

}  // namespace

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
                        const VersionToken& token, VerifyCache* cache) {
  return VerifyThrough(cache, scheme, master_public_key, token.SignedBody(),
                       token.signature);
}

bool TokenIsFresh(const VersionToken& token, SimTime now,
                  SimTime max_latency) {
  return now - token.timestamp <= max_latency;
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
                           const Bytes& slave_public_key, const Pledge& pledge,
                           VerifyCache* cache) {
  return VerifyThrough(cache, scheme, slave_public_key, pledge.SignedBody(),
                       pledge.signature);
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
  return VerifyThrough(cache, scheme, master_public_key, commit.SignedBody(),
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
  if (!WireWellFormed<QueryResult>(result) ||
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
