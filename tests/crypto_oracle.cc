#include "tests/crypto_oracle.h"

#include <cstring>

#include "src/crypto/ed25519.h"
#include "src/crypto/sha2.h"

namespace sdr::crypto_oracle {

using ed25519_internal::BasePoint;
using ed25519_internal::ClampScalar;
using ed25519_internal::CompressWithZInv;
using ed25519_internal::PointAdd;
using ed25519_internal::PointDecompress;

namespace {

// L = 2^252 + 27742317777372353535851937790883648493 as little-endian
// 64-bit words.
constexpr uint64_t kOrderL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL,
                                 0, 0x1000000000000000ULL};

void LoadWords(uint64_t* w, const uint8_t* in, int n) {
  for (int i = 0; i < n; ++i) {
    uint64_t word = 0;
    for (int b = 7; b >= 0; --b) {
      word = (word << 8) | in[8 * i + b];
    }
    w[i] = word;
  }
}

void StoreWords(uint8_t out[32], const uint64_t w[4]) {
  for (int i = 0; i < 32; ++i) {
    out[i] = (uint8_t)(w[i / 8] >> (8 * (i % 8)));
  }
}

bool LessThanL(const uint64_t a[4]) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != kOrderL[i]) {
      return a[i] < kOrderL[i];
    }
  }
  return false;
}

void SubL(uint64_t a[4]) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 d =
        (unsigned __int128)a[i] - kOrderL[i] - (uint64_t)borrow;
    a[i] = (uint64_t)d;
    borrow = (d >> 64) & 1;
  }
}

void Compress(uint8_t out[32], const Point& p) {
  CompressWithZInv(out, p, FeInvertFermat(p.z));
}

// SHA-512 of the concatenated parts, reduced mod L.
void HashToScalar(uint8_t out[32], const uint8_t* a, size_t a_len,
                  const Bytes& b, const Bytes& c) {
  Sha512 h;
  h.Update(a, a_len);
  h.Update(b);
  h.Update(c);
  Bytes digest = h.Final();
  ScReduceBytesNaive(out, digest.data(), digest.size());
}

}  // namespace

Fe FeInvertFermat(const Fe& a) {
  static const uint8_t kPrimeMinus2[32] = {
      0xeb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f};
  return ed25519_internal::FePow(a, kPrimeMinus2);
}

Point PointScalarMul(const Point& p, const uint8_t scalar[32]) {
  const Fe zero{{0, 0, 0, 0, 0}}, one{{1, 0, 0, 0, 0}};
  Point r{zero, one, one, zero};
  for (int bit = 255; bit >= 0; --bit) {
    r = PointAdd(r, r);
    if ((scalar[bit / 8] >> (bit % 8)) & 1) {
      r = PointAdd(r, p);
    }
  }
  return r;
}

void ScReduceBytesNaive(uint8_t out[32], const uint8_t* in, size_t len) {
  uint64_t r[4] = {0, 0, 0, 0};
  for (size_t i = len; i-- > 0;) {
    for (int bit = 7; bit >= 0; --bit) {
      // r = r*2 + bit, then conditional subtract.
      uint64_t carry = 0;
      for (int w = 0; w < 4; ++w) {
        uint64_t next_carry = r[w] >> 63;
        r[w] = (r[w] << 1) | carry;
        carry = next_carry;
      }
      r[0] |= (in[i] >> bit) & 1;
      // After one doubling of a value < L (< 2^253), r < 2^254: no limb
      // overflow, and at most one subtraction restores r < L.
      if (carry != 0 || !LessThanL(r)) {
        SubL(r);
      }
    }
  }
  StoreWords(out, r);
}

void ScMulAddNaive(uint8_t out[32], const uint8_t a[32], const uint8_t b[32],
                   const uint8_t c[32]) {
  uint64_t al[4], bl[4], cl[4];
  LoadWords(al, a, 4);
  LoadWords(bl, b, 4);
  LoadWords(cl, c, 4);
  uint64_t prod[8] = {0};
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      unsigned __int128 cur =
          (unsigned __int128)al[i] * bl[j] + prod[i + j] + (uint64_t)carry;
      prod[i + j] = (uint64_t)cur;
      carry = cur >> 64;
    }
    prod[i + 4] += (uint64_t)carry;
  }
  unsigned __int128 carry = 0;
  for (int i = 0; i < 8; ++i) {
    unsigned __int128 cur =
        (unsigned __int128)prod[i] + (i < 4 ? cl[i] : 0) + (uint64_t)carry;
    prod[i] = (uint64_t)cur;
    carry = cur >> 64;
  }
  uint8_t prod_bytes[64];
  StoreWords(prod_bytes, prod);
  StoreWords(prod_bytes + 32, prod + 4);
  ScReduceBytesNaive(out, prod_bytes, 64);
}

Bytes PublicKeyNaive(const Bytes& seed) {
  Bytes h = Sha512::Hash(seed);
  uint8_t a[32];
  std::memcpy(a, h.data(), 32);
  ClampScalar(a);
  Bytes pub(kEd25519PublicKeySize);
  Compress(pub.data(), PointScalarMul(BasePoint(), a));
  return pub;
}

Bytes SignNaive(const Bytes& seed, const Bytes& message) {
  Bytes h = Sha512::Hash(seed);
  uint8_t a[32];
  std::memcpy(a, h.data(), 32);
  ClampScalar(a);
  const Bytes pub = PublicKeyNaive(seed);

  // r = SHA512(prefix || M) mod L, R = rB.
  uint8_t r[32];
  HashToScalar(r, h.data() + 32, 32, message, Bytes());
  uint8_t r_enc[32];
  Compress(r_enc, PointScalarMul(BasePoint(), r));

  // k = SHA512(R || A || M) mod L, S = (r + k*a) mod L.
  uint8_t k[32];
  HashToScalar(k, r_enc, 32, pub, message);
  uint8_t s[32];
  ScMulAddNaive(s, k, a, r);

  Bytes sig(kEd25519SignatureSize);
  std::memcpy(sig.data(), r_enc, 32);
  std::memcpy(sig.data() + 32, s, 32);
  return sig;
}

bool VerifyNaive(const Bytes& public_key, const Bytes& message,
                 const Bytes& signature) {
  if (public_key.size() != kEd25519PublicKeySize ||
      signature.size() != kEd25519SignatureSize) {
    return false;
  }
  const uint8_t* r_enc = signature.data();
  const uint8_t* s = signature.data() + 32;
  uint64_t s_words[4];
  LoadWords(s_words, s, 4);
  Point a_point, r_point;
  if (!LessThanL(s_words) || !PointDecompress(a_point, public_key.data()) ||
      !PointDecompress(r_point, r_enc)) {
    return false;
  }
  uint8_t k[32];
  HashToScalar(k, r_enc, 32, public_key, message);

  // [S]B == R + [k]A, compared as encodings.
  uint8_t lhs[32], rhs[32];
  Compress(lhs, PointScalarMul(BasePoint(), s));
  Compress(rhs, PointAdd(r_point, PointScalarMul(a_point, k)));
  return std::memcmp(lhs, rhs, 32) == 0;
}

}  // namespace sdr::crypto_oracle
