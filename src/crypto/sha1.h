// SHA-1 (FIPS 180-1) — the hash the paper specifies for pledge result
// digests. Incremental Update/Final interface plus a one-shot helper.
#ifndef SDR_SRC_CRYPTO_SHA1_H_
#define SDR_SRC_CRYPTO_SHA1_H_

#include <cstdint>
#include <string_view>

#include "src/util/bytes.h"

namespace sdr {

class Sha1 {
 public:
  static constexpr size_t kDigestSize = 20;
  static constexpr size_t kBlockSize = 64;

  Sha1();

  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view data) {
    Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }

  // Finalizes and returns the 20-byte digest. The object must not be used
  // after Final().
  Bytes Final();

  static Bytes Hash(BytesView data);
  static Bytes Hash(std::string_view data);

 private:
  uint32_t h_[5];
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
};

}  // namespace sdr

#endif  // SDR_SRC_CRYPTO_SHA1_H_
