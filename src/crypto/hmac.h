// HMAC-SHA256 (RFC 2104). Used by the HmacSigner (cheap symmetric
// authentication mode for very large simulations).
#ifndef SDR_SRC_CRYPTO_HMAC_H_
#define SDR_SRC_CRYPTO_HMAC_H_

#include "src/util/bytes.h"

namespace sdr {

// Computes HMAC-SHA256(key, message). Keys longer than the block size are
// hashed first, per the RFC.
Bytes HmacSha256(const Bytes& key, const Bytes& message);

}  // namespace sdr

#endif  // SDR_SRC_CRYPTO_HMAC_H_
