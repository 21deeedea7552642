// Block buffering and final padding shared by SHA-1, SHA-256 and SHA-512
// (FIPS 180-4 §5.1): each run of whole blocks goes straight to the
// compression function in one call, a partial block waits in the buffer,
// and Final appends 0x80, zeros and the big-endian bit length a block at a
// time.
#ifndef SDR_SRC_CRYPTO_SHA_BLOCK_H_
#define SDR_SRC_CRYPTO_SHA_BLOCK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sdr::sha_internal {

inline uint32_t LoadBe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

inline uint64_t LoadBe64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadBe32(p)) << 32 | LoadBe32(p + 4);
}

// Feeds data through compress(blocks, n_blocks), carrying a partial block
// over in buffer[0, buffer_len). The whole blocks of data go in one call.
template <size_t kBlock, typename Compress>
void Absorb(uint8_t (&buffer)[kBlock], size_t& buffer_len, const uint8_t* data,
            size_t len, Compress&& compress) {
  if (len == 0) {
    return;  // data may be null, which memcpy must not see
  }
  if (buffer_len > 0) {
    size_t take = std::min(len, kBlock - buffer_len);
    std::memcpy(buffer + buffer_len, data, take);
    buffer_len += take;
    data += take;
    len -= take;
    if (buffer_len < kBlock) {
      return;
    }
    compress(buffer, 1);
    buffer_len = 0;
  }
  const size_t n_blocks = len / kBlock;
  if (n_blocks > 0) {
    compress(data, n_blocks);
    data += n_blocks * kBlock;
    len -= n_blocks * kBlock;
  }
  std::memcpy(buffer, data, len);
  buffer_len = len;
}

// Pads the buffered tail and compresses the last one or two blocks. The
// length field is the final kLenBytes of a block; total_len is in bytes.
template <size_t kLenBytes, size_t kBlock, typename Compress>
void Pad(uint8_t (&buffer)[kBlock], size_t buffer_len, uint64_t total_len,
         Compress&& compress) {
  buffer[buffer_len++] = 0x80;
  if (buffer_len > kBlock - kLenBytes) {
    std::memset(buffer + buffer_len, 0, kBlock - buffer_len);
    compress(buffer, 1);
    buffer_len = 0;
  }
  std::memset(buffer + buffer_len, 0, kBlock - 8 - buffer_len);
  const uint64_t bits = total_len * 8;
  for (int i = 0; i < 8; ++i) {
    buffer[kBlock - 1 - i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  compress(buffer, 1);
}

}  // namespace sdr::sha_internal

#endif  // SDR_SRC_CRYPTO_SHA_BLOCK_H_
