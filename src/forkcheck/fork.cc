#include "src/forkcheck/fork.h"

#include <algorithm>

#include "src/crypto/sha1.h"

namespace sdr {

namespace {

bool Fail(std::string* why, const char* reason) {
  if (why != nullptr) {
    *why = reason;
  }
  return false;
}

}  // namespace

VersionVector MakeVersionVector(const Signer& slave_signer, NodeId slave,
                                uint64_t content_version,
                                uint64_t chain_length, const Bytes& head_sha1) {
  VersionVector v;
  v.slave = slave;
  v.content_version = content_version;
  v.chain_length = chain_length;
  v.head_sha1 = head_sha1;
  v.signature = slave_signer.Sign(v.SignedBody());
  return v;
}

bool VerifyVersionVector(SignatureScheme scheme, const Bytes& slave_public_key,
                         const VersionVector& vv) {
  return VerifySignature(scheme, slave_public_key, vv.SignedBody(),
                         vv.signature);
}

bool VerifyVersionVector(SignatureScheme scheme, const Bytes& slave_public_key,
                         const VersionVector& vv, VerifyCache* cache) {
  if (cache == nullptr) {
    return VerifyVersionVector(scheme, slave_public_key, vv);
  }
  return cache->Verify(scheme, slave_public_key, vv.SignedBody(),
                       vv.signature);
}

PledgeChain::PledgeChain() : head_(Sha1::kDigestSize, 0) {}

const VersionVector& PledgeChain::ExtendAndCommit(const Signer& slave_signer,
                                                  NodeId slave,
                                                  uint64_t version,
                                                  const Pledge& pledge) {
  Sha1 h;
  h.Update(head_);
  h.Update(pledge.SignedBody());
  head_ = h.Final();
  ++pledges_folded_;
  last_ = MakeVersionVector(slave_signer, slave, version, pledges_folded_,
                            head_);
  return last_;
}

bool VvsConflict(const VersionVector& a, const VersionVector& b) {
  if (a.chain_length == b.chain_length) {
    return a.head_sha1 != b.head_sha1 ||
           a.content_version != b.content_version;
  }
  const VersionVector& lo = a.chain_length < b.chain_length ? a : b;
  const VersionVector& hi = a.chain_length < b.chain_length ? b : a;
  return lo.content_version > hi.content_version;
}

std::optional<ForkDetector::Conflict> ForkDetector::Observe(
    const AttestedVv& avv) {
  std::map<uint64_t, AttestedVv>& history = seen_[avv.vv.slave];
  const AttestedVv* counterpart = nullptr;
  auto [it, inserted] = history.emplace(avv.vv.chain_length, avv);
  if (!inserted) {
    if (!VvsConflict(it->second.vv, avv.vv)) {
      return std::nullopt;  // the same commitment, re-observed
    }
    counterpart = &it->second;
  } else {
    // The retained set is conflict-free (version non-decreasing in
    // length), so only the length-neighbours can disagree with the
    // newcomer: any farther predecessor's version is bounded by the
    // nearest one's, and symmetrically for successors.
    if (it != history.begin()) {
      const AttestedVv& pred = std::prev(it)->second;
      if (VvsConflict(pred.vv, avv.vv)) {
        counterpart = &pred;
      }
    }
    if (counterpart == nullptr && std::next(it) != history.end()) {
      const AttestedVv& succ = std::next(it)->second;
      if (VvsConflict(succ.vv, avv.vv)) {
        counterpart = &succ;
      }
    }
    if (counterpart != nullptr) {
      history.erase(it);  // keep the stored set conflict-free
    }
  }
  if (counterpart == nullptr) {
    return std::nullopt;
  }
  // Report the slave once; further conflicts add no information.
  if (!flagged_.insert(avv.vv.slave).second) {
    return std::nullopt;
  }
  return Conflict{*counterpart, avv};
}

size_t ForkDetector::tracked() const {
  size_t n = 0;
  for (const auto& [slave, history] : seen_) {
    n += history.size();
  }
  return n;
}

EvidenceChain MakeEvidenceChain(const AttestedVv& a, const AttestedVv& b,
                                const std::vector<Certificate>& master_certs) {
  EvidenceChain c;
  c.a = a;
  c.b = b;
  c.master_certs = master_certs;
  return c;
}

namespace {

// Verifies one attested side of the evidence against the (already
// content-key-verified) master certificates.
bool VerifySide(SignatureScheme scheme,
                const std::vector<Certificate>& master_certs,
                const AttestedVv& side, std::string* why) {
  if (side.slave_cert.role != Role::kSlave) {
    return Fail(why, "subject certificate is not a slave certificate");
  }
  bool slave_cert_ok = false;
  const Certificate* token_master = nullptr;
  for (const Certificate& mc : master_certs) {
    if (!slave_cert_ok &&
        VerifyCertificate(scheme, mc.subject_public_key, side.slave_cert)) {
      slave_cert_ok = true;
    }
    if (mc.subject == side.token.master) {
      token_master = &mc;
    }
  }
  if (!slave_cert_ok) {
    return Fail(why, "slave certificate not issued by any listed master");
  }
  if (token_master == nullptr) {
    return Fail(why, "token's master has no certificate in the chain");
  }
  if (!VerifyVersionToken(scheme, token_master->subject_public_key,
                          side.token)) {
    return Fail(why, "version token signature invalid");
  }
  if (side.vv.slave != side.slave_cert.subject) {
    return Fail(why, "version vector names a different slave");
  }
  if (side.token.content_version != side.vv.content_version) {
    return Fail(why, "token version does not match the vector");
  }
  if (!VerifyVersionVector(scheme, side.slave_cert.subject_public_key,
                           side.vv)) {
    return Fail(why, "version vector signature invalid");
  }
  return true;
}

}  // namespace

bool VerifyEvidenceChain(SignatureScheme scheme,
                         const Bytes& content_public_key,
                         const EvidenceChain& c, std::string* why) {
  if (c.master_certs.empty()) {
    return Fail(why, "no master certificates in the chain");
  }
  for (const Certificate& mc : c.master_certs) {
    if (mc.role != Role::kMaster ||
        !VerifyCertificate(scheme, content_public_key, mc)) {
      return Fail(why, "master certificate does not verify under content key");
    }
  }
  if (!VerifySide(scheme, c.master_certs, c.a, why) ||
      !VerifySide(scheme, c.master_certs, c.b, why)) {
    return false;
  }
  if (c.a.vv.slave != c.b.vv.slave) {
    return Fail(why, "the two vectors name different slaves");
  }
  if (!VvsConflict(c.a.vv, c.b.vv)) {
    return Fail(why, "commitments are chain-consistent: no equivocation shown");
  }
  if (why != nullptr) {
    why->clear();
  }
  return true;
}

}  // namespace sdr
