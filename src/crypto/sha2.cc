#include "src/crypto/sha2.h"

#include <array>
#include <cstring>

#include "src/crypto/sha_block.h"
#include "src/crypto/sha_kernels.h"

namespace sdr {

namespace {

// ---------------------------------------------------------------------------
// Round-constant derivation.
//
// K_i = first 64 bits of frac(cbrt(p_i)) for the i-th prime p_i, i.e.
// floor(cbrt(p_i * 2^192)) mod 2^64. We compute the integer cube root of the
// 200-bit value p_i << 192 by binary search using 256-bit arithmetic.
// ---------------------------------------------------------------------------

struct U256 {
  uint64_t w[4] = {0, 0, 0, 0};  // little-endian limbs
};

// Compares a and b; returns -1/0/1.
int Cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.w[i] != b.w[i]) {
      return a.w[i] < b.w[i] ? -1 : 1;
    }
  }
  return 0;
}

// c = a * b for 128-bit a, b (given as lo/hi pairs), truncated to 256 bits.
// Cube candidates are < 2^67 so no truncation occurs in practice.
U256 Mul128(uint64_t a_lo, uint64_t a_hi, uint64_t b_lo, uint64_t b_hi) {
  U256 r;
  auto mac = [&r](int idx, uint64_t x, uint64_t y) {
    unsigned __int128 p = static_cast<unsigned __int128>(x) * y;
    unsigned __int128 acc = p;
    for (int i = idx; i < 4 && acc != 0; ++i) {
      acc += r.w[i];
      r.w[i] = static_cast<uint64_t>(acc);
      acc >>= 64;
    }
  };
  mac(0, a_lo, b_lo);
  mac(1, a_lo, b_hi);
  mac(1, a_hi, b_lo);
  mac(2, a_hi, b_hi);
  return r;
}

// candidate^3 where candidate < 2^85 (fits lo/hi). Result must fit 256 bits.
U256 Cube(uint64_t lo, uint64_t hi) {
  U256 sq = Mul128(lo, hi, lo, hi);
  // sq fits in 192 bits for our candidates; multiply by candidate again.
  // Full 256x128 multiply, truncated to 256 bits (no overflow for our use).
  U256 r;
  auto mac = [&r](int idx, uint64_t x, uint64_t y) {
    if (idx >= 4) {
      return;
    }
    unsigned __int128 p = static_cast<unsigned __int128>(x) * y;
    unsigned __int128 acc = p;
    for (int i = idx; i < 4 && acc != 0; ++i) {
      acc += r.w[i];
      r.w[i] = static_cast<uint64_t>(acc);
      acc >>= 64;
    }
  };
  for (int i = 0; i < 4; ++i) {
    mac(i, sq.w[i], lo);
    mac(i + 1, sq.w[i], hi);
  }
  return r;
}

// floor(cbrt(p << 192)) mod 2^64.
uint64_t CbrtFrac64(uint32_t prime) {
  U256 target;
  target.w[3] = static_cast<uint64_t>(prime);  // prime << 192
  // The root is < 2^67 (prime < 512 -> cbrt(2^201) ~ 2^67).
  uint64_t lo = 0, hi = 0;
  for (int bit = 66; bit >= 0; --bit) {
    uint64_t t_lo = lo, t_hi = hi;
    if (bit >= 64) {
      t_hi |= 1ULL << (bit - 64);
    } else {
      t_lo |= 1ULL << bit;
    }
    if (Cmp(Cube(t_lo, t_hi), target) <= 0) {
      lo = t_lo;
      hi = t_hi;
    }
  }
  // Fractional part = root with the integer part (top bits) dropped; since
  // the integer part of cbrt(prime) is < 8, it occupies bits >= 64 of the
  // scaled root only when prime >= 2... Concretely: root = cbrt(p)*2^64, and
  // cbrt(p) in [1, 8), so root in [2^64, 2^67); the low 64 bits are exactly
  // the fractional part we want.
  return lo;
}

// Built once, on first use; the static's initialization is thread-safe, so
// threads hashing for the first time at once do not race on the table.
const std::array<uint64_t, 80>& K512() {
  static const std::array<uint64_t, 80> k = [] {
    std::array<uint64_t, 80> out{};
    int count = 0;
    for (uint32_t n = 2; count < 80; ++n) {
      bool prime = true;
      for (uint32_t d = 2; d * d <= n; ++d) {
        if (n % d == 0) {
          prime = false;
          break;
        }
      }
      if (prime) {
        out[count++] = CbrtFrac64(n);
      }
    }
    return out;
  }();
  return k;
}

// SHA-256's constants: the top 32 bits of the first 64 SHA-512 ones.
const std::array<uint32_t, 64>& K256() {
  static const std::array<uint32_t, 64> k = [] {
    std::array<uint32_t, 64> out{};
    for (int i = 0; i < 64; ++i) {
      out[i] = static_cast<uint32_t>(K512()[i] >> 32);
    }
    return out;
  }();
  return k;
}

inline uint32_t Rotr32(uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}
inline uint64_t Rotr64(uint64_t x, int n) {
  return (x >> n) | (x << (64 - n));
}

}  // namespace

const uint64_t* Sha512RoundConstants() {
  return K512().data();
}

// ---------------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------------

Sha256::Sha256() {
  std::memcpy(h_, sha_internal::kSha256Init, sizeof(h_));
}

namespace sha_internal {

const uint32_t* Sha256RoundConstants() {
  return K256().data();
}

void Sha256Portable(uint32_t state[8], const uint8_t* data, size_t n_blocks) {
  const std::array<uint32_t, 64>& k = K256();
  for (; n_blocks > 0; --n_blocks, data += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = LoadBe32(data + 4 * i);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 =
          Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 =
          Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], hh = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = hh + s1 + ch + k[i] + w[i];
      uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      hh = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += hh;
  }
}

Sha256Kernel Sha256Compress() {
#ifdef SDR_SHA_NI
  static const Sha256Kernel kernel =
      CpuHasShaNi() ? Sha256Ni : Sha256Portable;
  return kernel;
#else
  return Sha256Portable;
#endif
}

}  // namespace sha_internal

void Sha256::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  const sha_internal::Sha256Kernel compress = sha_internal::Sha256Compress();
  sha_internal::Absorb(buffer_, buffer_len_, data, len,
                       [this, compress](const uint8_t* blocks, size_t n) {
                         compress(h_, blocks, n);
                       });
}

Bytes Sha256::Final() {
  Bytes digest(kDigestSize);
  Final(digest.data());
  return digest;
}

void Sha256::Final(uint8_t out[kDigestSize]) {
  const sha_internal::Sha256Kernel compress = sha_internal::Sha256Compress();
  sha_internal::Pad<8>(buffer_, buffer_len_, total_len_,
                       [this, compress](const uint8_t* blocks, size_t n) {
                         compress(h_, blocks, n);
                       });
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
}

Bytes Sha256::Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Final();
}

Bytes Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Final();
}

// ---------------------------------------------------------------------------
// SHA-512
// ---------------------------------------------------------------------------

Sha512::Sha512() {
  static constexpr uint64_t kInit[8] = {
      0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL,
      0xa54ff53a5f1d36f1ULL, 0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
      0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL,
  };
  std::memcpy(h_, kInit, sizeof(h_));
}

void Sha512::ProcessBlock(const uint8_t* block) {
  const std::array<uint64_t, 80>& k = K512();
  uint64_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = sha_internal::LoadBe64(block + 8 * i);
  }
  for (int i = 16; i < 80; ++i) {
    uint64_t s0 = Rotr64(w[i - 15], 1) ^ Rotr64(w[i - 15], 8) ^ (w[i - 15] >> 7);
    uint64_t s1 = Rotr64(w[i - 2], 19) ^ Rotr64(w[i - 2], 61) ^ (w[i - 2] >> 6);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint64_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  uint64_t e = h_[4], f = h_[5], g = h_[6], hh = h_[7];
  for (int i = 0; i < 80; ++i) {
    uint64_t s1 = Rotr64(e, 14) ^ Rotr64(e, 18) ^ Rotr64(e, 41);
    uint64_t ch = (e & f) ^ (~e & g);
    uint64_t temp1 = hh + s1 + ch + k[i] + w[i];
    uint64_t s0 = Rotr64(a, 28) ^ Rotr64(a, 34) ^ Rotr64(a, 39);
    uint64_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint64_t temp2 = s0 + maj;
    hh = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += hh;
}

void Sha512::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  sha_internal::Absorb(buffer_, buffer_len_, data, len,
                       [this](const uint8_t* blocks, size_t n) {
                         for (; n > 0; --n, blocks += kBlockSize) {
                           ProcessBlock(blocks);
                         }
                       });
}

Bytes Sha512::Final() {
  sha_internal::Pad<16>(buffer_, buffer_len_, total_len_,
                        [this](const uint8_t* block, size_t) {
                          ProcessBlock(block);
                        });
  Bytes digest(kDigestSize);
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 8; ++b) {
      digest[8 * i + b] = static_cast<uint8_t>(h_[i] >> (56 - 8 * b));
    }
  }
  return digest;
}

Bytes Sha512::Hash(const Bytes& data) {
  Sha512 h;
  h.Update(data);
  return h.Final();
}

Bytes Sha512::Hash(std::string_view data) {
  Sha512 h;
  h.Update(data);
  return h.Final();
}

}  // namespace sdr
