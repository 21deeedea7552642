#include "src/core/certificate.h"

namespace sdr {

Certificate IssueCertificate(const Signer& issuer, NodeId subject, Role role,
                             const Bytes& subject_public_key) {
  Certificate cert;
  cert.subject = subject;
  cert.role = role;
  cert.subject_public_key = subject_public_key;
  cert.signature = issuer.Sign(cert.SignedBody());
  return cert;
}

bool VerifyCertificate(SignatureScheme scheme, const Bytes& issuer_public_key,
                       const Certificate& cert) {
  return VerifySignature(scheme, issuer_public_key, cert.SignedBody(),
                         cert.signature);
}

}  // namespace sdr
