// Ed25519's arithmetic kernels, exposed so tests and benches can hold each
// fast kernel to its unoptimized oracle. Nothing outside src/crypto/,
// tests/ and bench/ includes this header; the protocol uses ed25519.h.
//
// There are two of each kernel:
//   - field inversion mod p = 2^255 - 19: Bernstein–Yang constant-time
//     safegcd (the fast path) and Fermat's a^(p-2) by plain
//     square-and-multiply (the naive path);
//   - reduction of a byte string of up to 64 bytes mod the group order L,
//     and S = a*b + c mod L: Barrett reduction on 64-bit words (the fast
//     path) and binary long division (the naive path).
// Ed25519SetFastPath() picks which of each pair the signing and
// verification code calls. Every fast kernel is branch-free and index-free
// in its inputs and returns a canonical result, as its oracle does.
#ifndef SDR_SRC_CRYPTO_ED25519_KERNELS_H_
#define SDR_SRC_CRYPTO_ED25519_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace sdr::ed25519_internal {

// A field element mod p as 5 limbs of 51 bits. Limbs may exceed 2^51
// (sums and differences are not carried); every kernel accepts limbs
// below 2^54.
struct Fe {
  uint64_t v[5];
};

// Fully reduces a to [0, p) and writes it as 32 little-endian bytes.
void FeToBytes(uint8_t out[32], const Fe& a);

// 1/a mod p, and 0 for a = 0 mod p. The two return the same value (not
// necessarily the same limbs).
Fe FeInvertSafegcd(const Fe& a);
Fe FeInvertFermat(const Fe& a);

// out = in mod L, for in a little-endian integer of len <= 64 bytes.
void ScReduceBytesBarrett(uint8_t out[32], const uint8_t* in, size_t len);
void ScReduceBytesNaive(uint8_t out[32], const uint8_t* in, size_t len);

// out = (a*b + c) mod L for 32-byte little-endian a, b, c; none of them
// need be reduced.
void ScMulAddBarrett(uint8_t out[32], const uint8_t a[32], const uint8_t b[32],
                     const uint8_t c[32]);
void ScMulAddNaive(uint8_t out[32], const uint8_t a[32], const uint8_t b[32],
                   const uint8_t c[32]);

}  // namespace sdr::ed25519_internal

#endif  // SDR_SRC_CRYPTO_ED25519_KERNELS_H_
