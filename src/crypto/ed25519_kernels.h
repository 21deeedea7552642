// Ed25519's arithmetic kernels and curve primitives, exposed so tests and
// benches can hold each fast kernel to an unoptimized oracle. Nothing
// outside src/crypto/, tests/, bench/ and tools/ct_check includes this
// header; the protocol uses ed25519.h.
//
// The oracle (tests/crypto_oracle.h) shares only what is declared here and
// brings its own double-and-add ladder, Fermat inversion and binary-division
// scalar reduction, so no fast kernel below is judged against itself:
//   - FeInvertSafegcd, Bernstein–Yang constant-time safegcd, against
//     Fermat's a^(p-2) by FePow;
//   - FePow2523, ref10's addition chain for a^(2^252 - 3), against FePow;
//   - ScReduceBytesBarrett and ScMulAddBarrett, Barrett reduction on 64-bit
//     words mod the group order L, against binary long division.
// Every fast kernel is branch-free and index-free in its inputs and returns
// a canonical result, as its oracle does.
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

// base^e by square-and-multiply, e given as 32 little-endian bytes.
Fe FePow(const Fe& base, const uint8_t e[32]);

// z^(2^252 - 3), the square root's power in point decompression, by an
// addition chain: the same value as FePow with that exponent.
Fe FePow2523(const Fe& z);

// 1/a mod p, and 0 for a = 0 mod p.
Fe FeInvertSafegcd(const Fe& a);

// out = in mod L, for in a little-endian integer of len <= 64 bytes.
void ScReduceBytesBarrett(uint8_t out[32], const uint8_t* in, size_t len);

// out = (a*b + c) mod L for 32-byte little-endian a, b, c; none of them
// need be reduced.
void ScMulAddBarrett(uint8_t out[32], const uint8_t a[32], const uint8_t b[32],
                     const uint8_t c[32]);

// A curve point in extended coordinates (X, Y, Z, T): x = X/Z, y = Y/Z,
// T = XY/Z on -x^2 + y^2 = 1 + d x^2 y^2.
struct Point {
  Fe x, y, z, t;
};

// Unified addition (add-2008-hwcd-3); also correct for doubling.
Point PointAdd(const Point& p, const Point& q);

// Writes p's 32-byte encoding given zinv = 1/Z.
void CompressWithZInv(uint8_t out[32], const Point& p, const Fe& zinv);

// Decodes a 32-byte encoding; false when it names no curve point.
bool PointDecompress(Point& out, const uint8_t in[32]);

// The base point B (y = 4/5, x even).
const Point& BasePoint();

// Clears the low 3 bits and the top bit of a secret scalar and sets bit 254.
void ClampScalar(uint8_t a[32]);

}  // namespace sdr::ed25519_internal

#endif  // SDR_SRC_CRYPTO_ED25519_KERNELS_H_
