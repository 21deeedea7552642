// Ed25519 signatures (RFC 8032), implemented from scratch:
//   - field arithmetic mod p = 2^255 - 19 (5 x 51-bit limbs, __int128 mul,
//     dedicated squaring)
//   - twisted Edwards point arithmetic in extended coordinates with the
//     unified add-2008-hwcd-3 formulas plus a dedicated doubling and mixed
//     additions against precomputed (y+x, y-x, 2dxy) points
//   - scalar arithmetic mod the group order L (byte-limb folding reduction
//     on the fast path, binary long division on the reference path)
//   - SHA-512 from src/crypto/sha2.h
//
// Two code paths produce bit-identical signatures and verdicts:
//   - the *fast path* (default): a precomputed signed-radix-16 fixed-base
//     table for signing/key derivation, Straus/Shamir interleaved
//     double-scalar multiplication for one-off verification, and per-key
//     fixed-base tables for verifying repeatedly against a prepared key;
//   - the *naive path*: the original clarity-first double-and-add ladders,
//     kept as a cross-checking oracle behind Ed25519SetFastPath(false).
//
// Curve constants (d, sqrt(-1), the base point) are derived numerically at
// first use instead of being transcribed, and validated by the RFC 8032
// test vectors in tests/crypto_test.cc.
//
// Constant-time discipline: the *fast-path* signing and key-derivation
// pipeline (seed hash -> clamp -> radix-16 digits -> fixed-base table
// multiplication -> S = r + k*a) is branch-free and memory-index-free in
// the secret, enforced two ways: statically by sdrlint rule R5 over the
// `sdrlint:secret` annotations in the sources, and dynamically by the
// MemorySanitizer taint harness `tools/ct_check` (see docs/ANALYSIS.md).
// The *naive* reference ladders remain variable-time by design and must
// only see secrets in offline cross-checking, never on a host exposed to
// timing adversaries.
#ifndef SDR_SRC_CRYPTO_ED25519_H_
#define SDR_SRC_CRYPTO_ED25519_H_

#include <cstdint>
#include <memory>

#include "src/util/bytes.h"

namespace sdr {

constexpr size_t kEd25519SeedSize = 32;
constexpr size_t kEd25519PublicKeySize = 32;
constexpr size_t kEd25519SignatureSize = 64;

// Derives the public key for a 32-byte seed.
Bytes Ed25519PublicKey(const Bytes& seed);

// Signs `message` with the given 32-byte seed; returns the 64-byte
// signature R || S.
Bytes Ed25519Sign(const Bytes& seed, const Bytes& message);

// Verifies signature over message for the given 32-byte public key.
// Rejects non-canonical S (S >= L) and undecodable points.
bool Ed25519Verify(const Bytes& public_key, const Bytes& message,
                   const Bytes& signature);

// Precomputed signing state for one seed: the clamped secret scalar, the
// deterministic-nonce prefix, and the encoded public key. Expanding costs
// one fixed-base multiplication; signing with the expanded key skips the
// per-call seed hashing and public-key derivation (the bulk of a naive
// sign). Signatures are bit-identical to Ed25519Sign on the same seed.
struct Ed25519ExpandedKey {
  uint8_t scalar[32];  // sdrlint:secret
  uint8_t prefix[32];  // sdrlint:secret
  Bytes public_key;
};

Ed25519ExpandedKey Ed25519ExpandKey(const Bytes& seed);
Bytes Ed25519SignExpanded(const Ed25519ExpandedKey& key, const Bytes& message);

// A public key prepared for repeated verification: decoded once, with a
// signed-radix-16 fixed-base table of -A (about 30 KB) beside the one for
// B. A verification against it costs 128 table additions and 4 doublings
// instead of decompressing A and running a 253-doubling ladder; building
// it costs about two plain verifications. Immutable once built, so
// threads may share one.
struct Ed25519PreparedKey;

// Returns nullptr when public_key is not a decodable 32-byte point, the
// case in which Ed25519Verify rejects every signature.
std::shared_ptr<const Ed25519PreparedKey> Ed25519PrepareKey(
    const Bytes& public_key);

// Same verdict as Ed25519Verify with the key that was prepared.
bool Ed25519VerifyPrepared(const Ed25519PreparedKey& key, const Bytes& message,
                           const Bytes& signature);

// Test/bench hook: toggles between the precomputed-table fast path and the
// original naive ladders (both produce identical bytes). Fast is the
// default; flipping this is global and not thread-safe.
void Ed25519SetFastPath(bool enabled);
bool Ed25519FastPathEnabled();

}  // namespace sdr

#endif  // SDR_SRC_CRYPTO_ED25519_H_
