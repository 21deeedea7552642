#include "src/crypto/hmac.h"

#include <algorithm>

#include "src/crypto/sha2.h"

namespace sdr {

Bytes HmacSha256(const Bytes& key, const Bytes& message) {
  constexpr size_t kBlock = Sha256::kBlockSize;
  // The key block, the pad and the inner digest live on the stack: the
  // returned tag is the only allocation.
  uint8_t k[kBlock] = {};
  if (key.size() > kBlock) {
    Sha256 h;
    h.Update(key);
    h.Final(k);
  } else {
    std::copy(key.begin(), key.end(), k);
  }

  uint8_t pad[kBlock];
  for (size_t i = 0; i < kBlock; ++i) {
    pad[i] = k[i] ^ 0x36;
  }
  Sha256 inner;
  inner.Update(pad, kBlock);
  inner.Update(message);
  uint8_t inner_digest[Sha256::kDigestSize];
  inner.Final(inner_digest);

  for (size_t i = 0; i < kBlock; ++i) {
    pad[i] = k[i] ^ 0x5c;
  }
  Sha256 outer;
  outer.Update(pad, kBlock);
  outer.Update(inner_digest, sizeof(inner_digest));
  return outer.Final();
}

}  // namespace sdr
