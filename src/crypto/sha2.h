// SHA-256 and SHA-512 (FIPS 180-2). SHA-512 backs Ed25519; SHA-256 backs
// HMAC session authentication and the Merkle tree used by the state-signing
// baseline.
//
// The round constants (fractional parts of cube roots of the first 80
// primes) are derived on first use by exact integer arithmetic rather
// than transcribed, and the derivation is cross-checked by the published
// test vectors in tests/crypto_test.cc.
#ifndef SDR_SRC_CRYPTO_SHA2_H_
#define SDR_SRC_CRYPTO_SHA2_H_

#include <cstdint>
#include <string_view>

#include "src/util/bytes.h"

namespace sdr {

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view data) {
    Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }

  Bytes Final();
  // Writes the digest to `out`, for callers that keep it off the heap.
  void Final(uint8_t out[kDigestSize]);

  static Bytes Hash(const Bytes& data);
  static Bytes Hash(std::string_view data);

 private:
  uint32_t h_[8];
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
};

class Sha512 {
 public:
  static constexpr size_t kDigestSize = 64;
  static constexpr size_t kBlockSize = 128;

  Sha512();

  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view data) {
    Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }

  Bytes Final();

  static Bytes Hash(const Bytes& data);
  static Bytes Hash(std::string_view data);

 private:
  void ProcessBlock(const uint8_t* block);

  uint64_t h_[8];
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
  // 128-bit message length is overkill for a simulator; 64-bit byte count
  // (2^64 bytes) is far beyond anything we hash.
  uint64_t total_len_ = 0;
};

// Exposed for tests: the derived SHA-512 round constant table (80 entries);
// SHA-256's constants are the top 32 bits of the first 64 entries.
// sdrlint:allow(R9 the derived constants are spot-checked against FIPS 180)
const uint64_t* Sha512RoundConstants();

}  // namespace sdr

#endif  // SDR_SRC_CRYPTO_SHA2_H_
