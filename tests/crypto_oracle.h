// The Ed25519 oracle: clarity-first reference implementations that the
// fast paths in src/crypto are held to. crypto_test, tools/ct_check and
// bench/bench_e10_micro link it; no production binary does.
//
// It shares only the curve primitives of src/crypto/ed25519_kernels.h
// (point addition, decoding, the base point, clamping, compression given
// 1/Z) and brings its own double-and-add ladder, Fermat inversion and
// binary-division scalar reduction, so no fast kernel is judged against
// itself. Gtest-free, so ct_check can run it fully instrumented under
// MemorySanitizer.
//
// Not constant-time: the ladder branches on scalar bits. It must only see
// secrets in offline cross-checking, never on a host exposed to timing
// adversaries.
#ifndef SDR_TESTS_CRYPTO_ORACLE_H_
#define SDR_TESTS_CRYPTO_ORACLE_H_

#include <cstddef>
#include <cstdint>

#include "src/crypto/ed25519_kernels.h"
#include "src/util/bytes.h"

namespace sdr::crypto_oracle {

using ed25519_internal::Fe;
using ed25519_internal::Point;

// Ed25519 by plain double-and-add ladders; byte-identical to
// Ed25519PublicKey / Ed25519Sign, and the same verdict as Ed25519Verify
// (sizes, canonical S, decodable A and R, then [S]B == R + [k]A).
Bytes PublicKeyNaive(const Bytes& seed);
Bytes SignNaive(const Bytes& seed, const Bytes& message);
bool VerifyNaive(const Bytes& public_key, const Bytes& message,
                 const Bytes& signature);

// scalar * p by plain double-and-add over 32 little-endian bytes.
Point PointScalarMul(const Point& p, const uint8_t scalar[32]);

// 1/a mod p as a^(p-2) by square-and-multiply; 0 for a = 0 mod p.
Fe FeInvertFermat(const Fe& a);

// out = in mod L, for in a little-endian integer of len <= 64 bytes, by
// binary long division.
void ScReduceBytesNaive(uint8_t out[32], const uint8_t* in, size_t len);

// out = (a*b + c) mod L: a schoolbook product, then ScReduceBytesNaive.
void ScMulAddNaive(uint8_t out[32], const uint8_t a[32], const uint8_t b[32],
                   const uint8_t c[32]);

}  // namespace sdr::crypto_oracle

#endif  // SDR_TESTS_CRYPTO_ORACLE_H_
