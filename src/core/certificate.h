// Certificates and the content trust chain (paper Section 2):
//
//   content key  — owned by the content owner; its public half identifies
//                  the content (self-certifying, per the Mazieres/Kaashoek
//                  reference).
//   master certs — bind a master's contact address (node id here) to its
//                  public key; issued and signed by the content key and
//                  published in the directory.
//   slave certs  — bind a slave's address to its key; signed by the master
//                  that manages the slave and handed to clients at setup.
#ifndef SDR_SRC_CORE_CERTIFICATE_H_
#define SDR_SRC_CORE_CERTIFICATE_H_

#include <cstdint>
#include <string>

#include "src/crypto/signer.h"
#include "src/runtime/env.h"
#include "src/util/bytes.h"
#include "src/util/result.h"
#include "src/util/serde.h"

namespace sdr {

enum class Role : uint8_t {
  kMaster = 0,
  kSlave = 1,
  kAuditor = 2,
};

constexpr Role WireEnumLast(Role) { return Role::kAuditor; }

struct Certificate {
  NodeId subject = kInvalidNode;  // contact address in the simulator
  Role role = Role::kMaster;
  Bytes subject_public_key;
  Bytes signature;  // by the issuer over the body

  SDR_WIRE_FIELDS(Certificate, subject, role, subject_public_key, signature)
  Bytes SignedBody() const { return WireSignedBody(*this, "sdr-cert-v1"); }

  bool operator==(const Certificate&) const = default;
};

// Issues a certificate signed with `issuer`.
Certificate IssueCertificate(const Signer& issuer, NodeId subject, Role role,
                             const Bytes& subject_public_key);

// Verifies that `cert` is signed by `issuer_public_key` under `scheme`.
bool VerifyCertificate(SignatureScheme scheme, const Bytes& issuer_public_key,
                       const Certificate& cert);

// The content identity: the content public key is the root of trust every
// client is assumed to know a priori (e.g. embedded in the content name).
struct ContentIdentity {
  SignatureScheme scheme = SignatureScheme::kEd25519;
  Bytes content_public_key;
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_CERTIFICATE_H_
