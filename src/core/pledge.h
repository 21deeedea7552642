// Version tokens and pledge packets — the paper's two signed protocol
// objects.
//
// A VersionToken is the "signed and time-stamped value of the
// content_version variable" a master attaches to state updates and
// keep-alives. A slave may serve reads only while its freshest token is
// younger than max_latency.
//
// A Pledge is the packet a slave signs for every read: a copy of the
// request, the SHA-1 of the result, and the latest master token. If the
// slave lies about the result, the pledge is irrefutable proof of its
// dishonesty (Section 3.3); honest slaves cannot be framed because framing
// would require forging their signature.
#ifndef SDR_SRC_CORE_PLEDGE_H_
#define SDR_SRC_CORE_PLEDGE_H_

#include <cstdint>

#include "src/core/certificate.h"
#include "src/crypto/signer.h"
#include "src/runtime/env.h"
#include "src/store/query.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace sdr {

struct VersionToken {
  uint64_t content_version = 0;
  SimTime timestamp = 0;   // master clock at signing
  NodeId master = kInvalidNode;
  Bytes signature;         // by the master key

  SDR_WIRE_FIELDS(VersionToken, content_version, timestamp, master, signature)
  Bytes SignedBody() const { return WireSignedBody(*this, "sdr-vtok-v1"); }

  bool operator==(const VersionToken&) const = default;
};

VersionToken MakeVersionToken(const Signer& master_signer, NodeId master,
                              uint64_t version, SimTime now);

// Checks the master's signature over the token. With a cache, repeated
// verifications of the same bytes (the usual case for version tokens,
// which masters attach unchanged to every pledge until the next keepalive)
// cost one lookup.
bool VerifyVersionToken(SignatureScheme scheme, const Bytes& master_public_key,
                        const VersionToken& token,
                        VerifyCache* cache = nullptr);

// Freshness predicate (Section 3.2): accepted only when the token is no
// older than max_latency at local time `now`.
bool TokenIsFresh(const VersionToken& token, SimTime now, SimTime max_latency);

struct Pledge {
  Query query;
  Bytes result_sha1;   // SHA-1 of the canonical result encoding
  VersionToken token;  // freshest token held by the slave
  NodeId slave = kInvalidNode;
  Bytes signature;     // by the slave key, over everything above

  // The token, including the master's signature, is part of the signed
  // body: it pins exactly which version the slave claims to have answered
  // at.
  SDR_WIRE_FIELDS(Pledge, query, result_sha1, token, slave, signature)
  Bytes SignedBody() const { return WireSignedBody(*this, "sdr-pledge-v1"); }

  bool operator==(const Pledge&) const = default;
};

// sdrlint:allow(R9 the one-call constructor tests and E10 build signed pledges
// with; Slave builds its pledge in place so a memo hit reuses the signature)
Pledge MakePledge(const Signer& slave_signer, NodeId slave, const Query& query,
                  const Bytes& result_sha1, const VersionToken& token);

// Checks the slave's signature only (token checked separately, since it
// needs the master key), through the cache when one is given.
bool VerifyPledgeSignature(SignatureScheme scheme,
                           const Bytes& slave_public_key, const Pledge& pledge,
                           VerifyCache* cache = nullptr);

// Verifies both signatures carried by one pledge — the slave's over the
// pledge body, then the master's over the embedded token — through the
// cache when one is given. Equivalent to the two separate checks.
bool VerifyPledgeAndToken(SignatureScheme scheme, const Bytes& slave_public_key,
                          const Bytes& master_public_key, const Pledge& pledge,
                          VerifyCache* cache);

// Outcome of the client-side checks on one read reply (Sections 3.2-3.3),
// listed in the order VerifyRead applies them.
enum class ReadVerdict {
  kAccepted,
  kHashMismatch,  // the result is malformed or does not hash to the
                  // pledged SHA-1
  kWrongSlave,    // the pledge names a slave other than the expected one
  kBadSignature,  // bad pledge or token signature, or uncertified master
  kStale,         // the token is older than max_latency at `now`
};

// The paper's read verification, shared by every client: the result hash,
// the pledging slave, the slave's and the master's signatures (through
// `cache` when non-null), then freshness. Returns the first failure.
// `result` is the canonical result encoding as received: it is hashed as
// is, and only a well-formed encoding (WireWellFormed<QueryResult>) can
// pass, so an accepted result always parses. `master_public_key` is the
// certified key of pledge.token.master, or null when that master is not
// certified.
ReadVerdict VerifyRead(SignatureScheme scheme, BytesView result,
                       const Pledge& pledge, const Certificate& slave_cert,
                       const Bytes* master_public_key, SimTime now,
                       SimTime max_latency, VerifyCache* cache);

// State-update certificate (beyond the paper): one master signature
// covering a contiguous run of committed versions [first_version,
// last_version]. batches_sha1 binds the certificate to the exact write
// batches (SHA-1 over their canonical encodings in version order), so a
// slave applies only content a master committed, and one signature covers
// a run of any length. Pledges are unchanged — they still embed the head
// VersionToken — so auditing, fork checking and the chaos invariants do
// not depend on how versions were grouped into runs.
struct BatchCommit {
  NodeId master = kInvalidNode;
  uint64_t first_version = 0;
  uint64_t last_version = 0;
  Bytes batches_sha1;
  SimTime timestamp = 0;  // master clock at signing
  Bytes signature;        // by the master key

  SDR_WIRE_FIELDS(BatchCommit, master, first_version, last_version,
                  batches_sha1, timestamp, signature)
  Bytes SignedBody() const { return WireSignedBody(*this, "sdr-bcom-v1"); }

  bool operator==(const BatchCommit&) const = default;
};

BatchCommit MakeBatchCommit(const Signer& master_signer, NodeId master,
                            uint64_t first_version, uint64_t last_version,
                            const Bytes& batches_sha1, SimTime now);

bool VerifyBatchCommit(SignatureScheme scheme, const Bytes& master_public_key,
                       const BatchCommit& commit, VerifyCache* cache);

}  // namespace sdr

#endif  // SDR_SRC_CORE_PLEDGE_H_
