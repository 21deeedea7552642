// The public directory (paper Section 2): master certificates are "stored
// in a public directory, indexed by content public key. Thus, by knowing
// the content public key and the address of the directory, any client can
// securely get the addresses and public keys of all the master servers."
// The directory itself is untrusted infrastructure — clients verify every
// returned certificate against the content key.
#ifndef SDR_SRC_CORE_DIRECTORY_H_
#define SDR_SRC_CORE_DIRECTORY_H_

#include <map>
#include <vector>

#include "src/core/certificate.h"
#include "src/core/messages.h"
#include "src/runtime/env.h"

namespace sdr {

class Directory : public Node {
 public:
  // Registers the master set for a content (called by the content owner).
  void Publish(const Bytes& content_public_key,
               std::vector<Certificate> master_certs);

  // Registers the shard placement for a content (scale-out). Like the
  // certificates, the placement is signed by the content key, so the
  // directory merely relays it; clients verify.
  void PublishPlacement(const Bytes& content_public_key,
                        ShardPlacement placement);

  void HandleMessage(NodeId from, const Payload& payload) override;

  uint64_t lookups_served() const { return lookups_served_; }

 private:
  std::map<Bytes, std::vector<Certificate>, BytesLess> by_content_;
  std::map<Bytes, ShardPlacement, BytesLess> placement_by_content_;
  uint64_t lookups_served_ = 0;
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_DIRECTORY_H_
