#include "src/crypto/sha1.h"

#include <cstring>

#include "src/crypto/sha_block.h"
#include "src/crypto/sha_kernels.h"

namespace sdr {

namespace {

using sha_internal::LoadBe32;

inline uint32_t Rotl32(uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

inline uint32_t Choose(uint32_t b, uint32_t c, uint32_t d) {
  return d ^ (b & (c ^ d));
}
inline uint32_t Parity(uint32_t b, uint32_t c, uint32_t d) {
  return b ^ c ^ d;
}
inline uint32_t Majority(uint32_t b, uint32_t c, uint32_t d) {
  return (b & c) | (d & (b | c));
}

// Schedule word t. Past the 16 loaded words, W[t] overwrites W[t - 16] in
// place: the recurrence never looks further back than that.
inline uint32_t Word(uint32_t w[16], int t) {
  if (t >= 16) {
    w[t & 15] = Rotl32(w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^
                           w[t & 15],
                       1);
  }
  return w[t & 15];
}

// One round with the register roles passed in rotated order, so no value
// moves between registers from one round to the next.
template <uint32_t (*F)(uint32_t, uint32_t, uint32_t), uint32_t K>
inline void Round(uint32_t a, uint32_t& b, uint32_t c, uint32_t d,
                  uint32_t& e, uint32_t w) {
  e += Rotl32(a, 5) + F(b, c, d) + K + w;
  b = Rotl32(b, 30);
}

// Rounds [t0, t0 + 20): one round function, one constant, no branches.
// Five rounds bring the roles back to where they started.
template <uint32_t (*F)(uint32_t, uint32_t, uint32_t), uint32_t K>
inline void Group(uint32_t v[5], uint32_t w[16], int t0) {
  uint32_t a = v[0], b = v[1], c = v[2], d = v[3], e = v[4];
  for (int t = t0; t < t0 + 20; t += 5) {
    Round<F, K>(a, b, c, d, e, Word(w, t));
    Round<F, K>(e, a, b, c, d, Word(w, t + 1));
    Round<F, K>(d, e, a, b, c, Word(w, t + 2));
    Round<F, K>(c, d, e, a, b, Word(w, t + 3));
    Round<F, K>(b, c, d, e, a, Word(w, t + 4));
  }
  v[0] = a;
  v[1] = b;
  v[2] = c;
  v[3] = d;
  v[4] = e;
}

}  // namespace

namespace sha_internal {

void Sha1Portable(uint32_t state[5], const uint8_t* data, size_t n_blocks) {
  for (; n_blocks > 0; --n_blocks, data += Sha1::kBlockSize) {
    uint32_t w[16];
    for (int i = 0; i < 16; ++i) {
      w[i] = LoadBe32(data + 4 * i);
    }
    uint32_t v[5] = {state[0], state[1], state[2], state[3], state[4]};
    Group<Choose, 0x5a827999u>(v, w, 0);
    Group<Parity, 0x6ed9eba1u>(v, w, 20);
    Group<Majority, 0x8f1bbcdcu>(v, w, 40);
    Group<Parity, 0xca62c1d6u>(v, w, 60);
    for (int i = 0; i < 5; ++i) {
      state[i] += v[i];
    }
  }
}

Sha1Kernel Sha1Compress() {
#ifdef SDR_SHA_NI
  static const Sha1Kernel kernel = CpuHasShaNi() ? Sha1Ni : Sha1Portable;
  return kernel;
#else
  return Sha1Portable;
#endif
}

}  // namespace sha_internal

Sha1::Sha1() {
  std::memcpy(h_, sha_internal::kSha1Init, sizeof(h_));
}

void Sha1::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  const sha_internal::Sha1Kernel compress = sha_internal::Sha1Compress();
  sha_internal::Absorb(buffer_, buffer_len_, data, len,
                       [this, compress](const uint8_t* blocks, size_t n) {
                         compress(h_, blocks, n);
                       });
}

Bytes Sha1::Final() {
  const sha_internal::Sha1Kernel compress = sha_internal::Sha1Compress();
  sha_internal::Pad<8>(buffer_, buffer_len_, total_len_,
                       [this, compress](const uint8_t* blocks, size_t n) {
                         compress(h_, blocks, n);
                       });
  Bytes digest(kDigestSize);
  for (int i = 0; i < 5; ++i) {
    digest[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return digest;
}

Bytes Sha1::Hash(BytesView data) {
  Sha1 h;
  h.Update(data.data(), data.size());
  return h.Final();
}

Bytes Sha1::Hash(std::string_view data) {
  Sha1 h;
  h.Update(data);
  return h.Final();
}

}  // namespace sdr
