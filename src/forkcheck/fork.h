// Fork-consistency detection (ROADMAP open item 2; beyond the paper).
//
// The paper's auditor re-executes pledged queries, so it catches a slave
// that answers *wrongly* at the version it claims. It cannot catch
// equivocation: a slave serving two internally-consistent forked histories
// to disjoint client sets never produces a falsifiable pledge. Following
// Cachin & Ohrimenko's fork-linearizability results and Del Pozzo et al.'s
// auditable registers (PAPERS.md), this module adds:
//
//   - VersionVector: a compact slave-signed commitment binding the
//     slave's pledge-chain head and length to the content version it
//     served at. An honest slave's commitments are totally ordered (one
//     head per length, version monotone in length); a slave maintaining
//     per-client-set forked views necessarily signs commitments no single
//     honest chain could produce.
//   - PledgeChain: the slave-side running SHA-1 chain over issued pledges,
//     with one commitment signed per served read.
//   - ForkDetector: shared by clients (gossiped vectors) and the auditor
//     (vectors riding audit submissions); flags commitment pairs that
//     violate the total order.
//   - EvidenceChain: the two conflicting signed commitments plus the
//     certificate material needed to verify them, checkable *offline* by
//     any third party holding only the content owner's public key.
//
// Everything here is inert unless ProtocolParams::fork_check_enabled is
// set: no wire bytes, timers, rng draws or report fields change in the
// disabled configuration.
#ifndef SDR_SRC_FORKCHECK_FORK_H_
#define SDR_SRC_FORKCHECK_FORK_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/certificate.h"
#include "src/core/pledge.h"
#include "src/crypto/signer.h"
#include "src/util/bytes.h"
#include "src/util/result.h"
#include "src/util/serde.h"

namespace sdr {

// A slave's signed commitment, minted per served read: "my
// `chain_length`-th pledge, issued at content version `content_version`,
// brought my pledge-chain head to `head_sha1`". An honest slave runs one
// chain, so its commitments are totally ordered: lengths are unique, and
// the version can only grow as the chain grows. Any signed pair violating
// that — two heads at one length, or a later version attested at a
// shorter chain — is non-repudiable proof of equivocation (VvsConflict).
struct VersionVector {
  NodeId slave = kInvalidNode;
  uint64_t content_version = 0;
  uint64_t chain_length = 0;  // pledges folded into head_sha1
  Bytes head_sha1;  // pledge-chain head after this commitment's pledge
  Bytes signature;  // slave's, over SignedBody()

  SDR_WIRE_FIELDS(VersionVector, slave, content_version, chain_length,
                  head_sha1, signature)
  Bytes SignedBody() const { return WireSignedBody(*this, "sdr-vv-v1"); }
};

VersionVector MakeVersionVector(const Signer& slave_signer, NodeId slave,
                                uint64_t content_version,
                                uint64_t chain_length, const Bytes& head_sha1);
bool VerifyVersionVector(SignatureScheme scheme, const Bytes& slave_public_key,
                         const VersionVector& vv);
bool VerifyVersionVector(SignatureScheme scheme, const Bytes& slave_public_key,
                         const VersionVector& vv, VerifyCache* cache);

// True when the two commitments (by one slave) cannot both come from one
// honest pledge chain:
//   - same chain length but different heads or versions (one chain has
//     exactly one commitment per length), or
//   - a later version attested at a shorter chain (an honest chain never
//     shrinks, so version order must follow chain-length order).
// Because a forked slave's per-client-set chains both walk through every
// length past the fork point, any detector holding one post-fork
// commitment from each set at a common length has proof — no common
// *version* is ever needed, which is what makes detection work when the
// two client sets are active at disjoint times.
bool VvsConflict(const VersionVector& a, const VersionVector& b);

// A VersionVector packaged with what a stranger needs to check it: the
// master-signed token for the same version (proving the version really
// committed) and the slave's certificate (binding the signing key). This
// is the unit clients gossip and detectors retain.
struct AttestedVv {
  VersionVector vv;
  VersionToken token;
  Certificate slave_cert;

  SDR_WIRE_FIELDS(AttestedVv, vv, token, slave_cert)
};

// The slave-side running hash chain over issued pledges. Each served read
// folds its pledge into the head and signs a fresh commitment over the
// result, so every reply carries the chain state that includes it.
class PledgeChain {
 public:
  PledgeChain();

  // head = SHA1(head || pledge signed body), then signs the commitment
  // (slave, version, ++length, head). The returned reference is valid
  // until the next call.
  const VersionVector& ExtendAndCommit(const Signer& slave_signer,
                                       NodeId slave, uint64_t version,
                                       const Pledge& pledge);

  const Bytes& head() const { return head_; }
  // sdrlint:allow(R9 tests observe the chain's length)
  size_t pledges_folded() const { return pledges_folded_; }

 private:
  Bytes head_;  // 20 zero bytes before the first pledge
  size_t pledges_folded_ = 0;
  VersionVector last_;
};

// Retains the commitments seen per slave, ordered by chain length, and
// flags the first pair that VvsConflict proves inconsistent. Because the
// stored set is kept conflict-free (versions non-decreasing in length), a
// new commitment only needs checking against its two length-neighbours.
// Used identically by clients (over read replies + gossip) and by the
// auditor (over vectors riding audit submissions).
class ForkDetector {
 public:
  struct Conflict {
    AttestedVv first;     // the commitment recorded earlier
    AttestedVv second;    // the conflicting one that exposed the fork
  };

  // Records an attested vector; returns a conflicting pair when it cannot
  // share an honest chain with one already recorded. At most one conflict
  // is reported per slave — a forked chain never reconverges, so further
  // conflicts add no information.
  std::optional<Conflict> Observe(const AttestedVv& avv);

  // sdrlint:allow(R9 tests check the detector's memory stays bounded)
  size_t tracked() const;

 private:
  // slave -> chain_length -> commitment at that length.
  std::map<NodeId, std::map<uint64_t, AttestedVv>> seen_;
  std::set<NodeId> flagged_;
};

// Transferable proof of equivocation: two attested commitments by the
// same slave that VvsConflict proves inconsistent — each with the
// master-signed token for its version and the slave's certificate — plus
// the master certificates rooting everything in the content owner's key.
struct EvidenceChain {
  AttestedVv a;
  AttestedVv b;
  std::vector<Certificate> master_certs;  // issued by the content owner

  SDR_WIRE_FIELDS(EvidenceChain, a, b, master_certs)
};

EvidenceChain MakeEvidenceChain(const AttestedVv& a, const AttestedVv& b,
                                const std::vector<Certificate>& master_certs);

// Offline verification — needs only the content owner's public key. True
// when every link holds: master certs verify under the content key, each
// slave cert under a listed master, each token under its master's cert,
// each vector under its slave cert and naming the token's version, both
// sides naming the same slave, and VvsConflict holding for the pair. On
// failure `why` (optional) receives a one-line reason.
bool VerifyEvidenceChain(SignatureScheme scheme,
                         const Bytes& content_public_key,
                         const EvidenceChain& chain,
                         std::string* why = nullptr);

// A file of evidence chains with the key material to verify them, written
// by sdrsim --evidence_out and checked by sdrtrace --evidence.
struct EvidenceBundle {
  SignatureScheme scheme = SignatureScheme::kEd25519;
  Bytes content_public_key;
  std::vector<EvidenceChain> chains;

  SDR_WIRE_FIELDS(EvidenceBundle, scheme, content_public_key, chains)
};

}  // namespace sdr

#endif  // SDR_SRC_FORKCHECK_FORK_H_
