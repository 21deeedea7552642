// ct_check — ctgrind-style constant-time harness for the Ed25519 fast path.
//
// The signed pledge is the protocol's evidence: a slave caught lying is
// convicted by its own signature. That conviction is only sound while the
// signing key stays secret, so the from-scratch fast path must not leak
// key bits through timing or cache side channels. Following ctgrind
// (Langley) and the dudect line of work, this harness marks the private
// seed as *tainted* using MemorySanitizer's uninitialized-memory shadow
// and then runs key expansion and signing. Any branch on tainted data and
// any tainted memory index is precisely what MSan reports — the same
// operations a microarchitectural attacker can observe. The declassifiers
// in src/crypto/ct.h release taint only where values become public by
// design (the published points A and R, the signature scalar S).
//
// Modes:
//   ct_check            taint check of fast-path keygen + sign, and of the
//                       scalar and inversion kernels on their own (the CI
//                       MSan gate). In a non-MSan build the taint calls
//                       are no-ops and the run degrades to a functional
//                       smoke check; the banner says which one you got.
//   ct_check --suite    gtest-free crypto suite: RFC 8032 vectors through
//                       the fast path and the oracle (tests/crypto_oracle.h),
//                       fast-vs-oracle cross-checks, batch verification
//                       with culprits. Runs under MSan where the
//                       gtest-based tests cannot (uninstrumented libgtest
//                       would false-positive).
//   ct_check --smoke    quick functional pass over both implementations,
//                       including the oracle's reference ladder; wired into
//                       ctest so the harness itself cannot rot.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/crypto/ct.h"
#include "src/crypto/ed25519.h"
#include "src/crypto/ed25519_kernels.h"
#include "src/crypto/signer.h"
#include "src/util/bytes.h"
#include "tests/crypto_oracle.h"

using namespace sdr;

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "ct_check: FAIL: %s\n", what);
  }
}

Bytes SeedFor(uint8_t tag) {
  Bytes seed(kEd25519SeedSize);
  for (size_t i = 0; i < seed.size(); ++i) {
    seed[i] = (uint8_t)(0x5d * (uint8_t)(i + 1) + tag);
  }
  return seed;
}

Bytes MessageFor(uint8_t tag, size_t len) {
  Bytes msg(len);
  for (size_t i = 0; i < len; ++i) {
    msg[i] = (uint8_t)(tag ^ (uint8_t)(31 * i + 7));
  }
  return msg;
}

// ---------------------------------------------------------------------------
// Taint mode: the actual constant-time check.
// ---------------------------------------------------------------------------

// Each fast arithmetic kernel on tainted input of its own. Signing reaches
// the scalar kernels with secrets but hands the inversion only the public
// Z of a declassified point, so this is where safegcd sees a secret. The
// outputs must carry the taint (the check is not vacuous) and, once
// declassified, equal the oracle's kernels on the same clean input.
void TaintKernels(uint8_t round) {
  namespace ei = ed25519_internal;
  const Bytes clean = MessageFor(round, 96);

  Bytes wide(clean.begin(), clean.begin() + 64);
  CtClassify(wide.data(), wide.size());
  uint8_t got[32], want[32];
  ei::ScReduceBytesBarrett(got, wide.data(), wide.size());
  crypto_oracle::ScReduceBytesNaive(want, clean.data(), 64);
  Check(!CtTaintActive() || CtIsTainted(got, 32), "reduced scalar carries taint");
  CtDeclassify(got, 32);
  Check(Bytes(got, got + 32) == Bytes(want, want + 32), "tainted ScReduceBytes");

  Bytes abc = clean;
  CtClassify(abc.data(), abc.size());
  ei::ScMulAddBarrett(got, abc.data(), abc.data() + 32, abc.data() + 64);
  crypto_oracle::ScMulAddNaive(want, clean.data(), clean.data() + 32,
                               clean.data() + 64);
  Check(!CtTaintActive() || CtIsTainted(got, 32), "r + k*a carries taint");
  CtDeclassify(got, 32);
  Check(Bytes(got, got + 32) == Bytes(want, want + 32), "tainted ScMulAdd");

  ei::Fe fe;
  for (int i = 0; i < 5; ++i) {
    fe.v[i] = ((uint64_t)clean[8 * i] << 40 | (uint64_t)clean[8 * i + 1] << 20 |
               clean[8 * i + 2]) & ((1ULL << 51) - 1);
  }
  Bytes fe_want(32), fe_got(32);
  ei::FeToBytes(fe_want.data(), crypto_oracle::FeInvertFermat(fe));
  CtClassify(&fe, sizeof(fe));
  ei::Fe inv = ei::FeInvertSafegcd(fe);
  Check(!CtTaintActive() || CtIsTainted(&inv, sizeof(inv)),
        "inverse carries taint");
  CtDeclassify(&inv, sizeof(inv));
  ei::FeToBytes(fe_got.data(), inv);
  Check(fe_got == fe_want, "tainted FeInvert");
}

int RunTaint() {
  std::printf("ct_check: taint harness %s\n",
              CtTaintActive() ? "ACTIVE (MemorySanitizer)"
                              : "inactive (plain build; functional smoke only)");

  for (uint8_t round = 0; round < 4; ++round) {
    TaintKernels(round);
  }

  for (uint8_t round = 0; round < 4; ++round) {
    const Bytes clean_seed = SeedFor(round);
    const Bytes msg = MessageFor(round, 32 + 17 * round);

    // Reference signature and key from an untainted copy, for correctness.
    const Ed25519ExpandedKey ref_key = Ed25519ExpandKey(clean_seed);
    const Bytes ref_sig = Ed25519SignExpanded(ref_key, msg);

    // Taint the seed. From here until the declassification points, every
    // derived value (hash, clamped scalar, radix-16 digits) carries shadow,
    // and MSan aborts on any branch or memory index that consumes it.
    Bytes seed = clean_seed;
    CtClassify(seed.data(), seed.size());
    if (CtTaintActive()) {
      Check(CtIsTainted(seed.data(), seed.size()),
            "harness sanity: classified seed must carry taint");
    }

    // Key expansion: one fixed-base multiplication over the secret scalar.
    Ed25519ExpandedKey key = Ed25519ExpandKey(seed);
    Check(!CtIsTainted(key.public_key.data(), key.public_key.size()),
          "public key must be declassified");
    Check(key.public_key == ref_key.public_key, "tainted keygen mismatch");

    // Expanded signing: the hot path (a slave pledging every read).
    Bytes sig = Ed25519SignExpanded(key, msg);
    Check(!CtIsTainted(sig.data(), sig.size()),
          "signature must be declassified");
    Check(sig == ref_sig, "tainted sign-expanded mismatch");

    // Seed signing (shared-inversion variant) exercises its own compress.
    Bytes sig2 = Ed25519Sign(seed, msg);
    Check(!CtIsTainted(sig2.data(), sig2.size()),
          "seed-signature must be declassified");
    Check(sig2 == ref_sig, "tainted seed-sign mismatch");

    // The verdict consumes only public data.
    Check(Ed25519Verify(key.public_key, msg, sig), "signature must verify");
  }

  if (g_failures == 0) {
    std::printf(
        "ct_check: PASS — no secret-dependent branch or index in fast-path "
        "keygen/sign or its arithmetic kernels%s\n",
        CtTaintActive() ? "" : " (functional only; rerun under MSan)");
  }
  return g_failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Suite mode: gtest-free crypto checks that can run fully instrumented.
// ---------------------------------------------------------------------------

struct Rfc8032Vector {
  const char* seed_hex;
  const char* public_hex;
  const char* message_hex;
  const char* signature_hex;
};

constexpr Rfc8032Vector kVectors[] = {
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025", "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
};

void RunVectors() {
  for (const auto& v : kVectors) {
    Bytes seed = HexDecode(v.seed_hex);
    Bytes pub = HexDecode(v.public_hex);
    Bytes msg = HexDecode(v.message_hex);
    Bytes sig = HexDecode(v.signature_hex);
    Check(Ed25519PublicKey(seed) == pub, "RFC 8032 public key");
    Check(Ed25519Sign(seed, msg) == sig, "RFC 8032 signature");
    Check(Ed25519Verify(pub, msg, sig), "RFC 8032 verify");
    Check(crypto_oracle::PublicKeyNaive(seed) == pub,
          "RFC 8032 public key (oracle)");
    Check(crypto_oracle::SignNaive(seed, msg) == sig,
          "RFC 8032 signature (oracle)");
    Check(crypto_oracle::VerifyNaive(pub, msg, sig),
          "RFC 8032 verify (oracle)");
  }
}

int RunSuite(bool quick) {
  const int rounds = quick ? 2 : 8;
  RunVectors();

  // The fast path and the oracle must agree bit-for-bit on derived inputs,
  // and the oracle's reference ladder itself must round-trip (it is what
  // the fast path is judged against).
  for (int i = 0; i < rounds; ++i) {
    Bytes seed = SeedFor((uint8_t)(0x40 + i));
    Bytes msg = MessageFor((uint8_t)i, 11 + 29 * (size_t)i);
    Bytes pub_naive = crypto_oracle::PublicKeyNaive(seed);
    Bytes sig_naive = crypto_oracle::SignNaive(seed, msg);
    Check(crypto_oracle::VerifyNaive(pub_naive, msg, sig_naive),
          "naive ladder round trip");
    Check(Ed25519PublicKey(seed) == pub_naive, "fast/naive public key");
    Check(Ed25519Sign(seed, msg) == sig_naive, "fast/naive signature");
    Check(Ed25519Verify(pub_naive, msg, sig_naive), "fast verify of naive sig");
    Bytes bad = sig_naive;
    bad[40] ^= 1;
    Check(!Ed25519Verify(pub_naive, msg, bad), "tampered signature rejected");
    Check(!crypto_oracle::VerifyNaive(pub_naive, msg, bad),
          "tampered signature rejected (oracle)");
  }

  // Cached batch verification (through prepared keys) with an embedded
  // culprit.
  std::vector<VerifyItem> items;
  for (int i = 0; i < 6; ++i) {
    Bytes seed = SeedFor((uint8_t)(0x80 + i));
    Bytes msg = MessageFor((uint8_t)(0xc0 + i), 24);
    VerifyItem item{Ed25519PublicKey(seed), msg, Ed25519Sign(seed, msg)};
    if (i == 3) {
      item.signature[5] ^= 0xff;  // the culprit
    }
    items.push_back(item);
  }
  VerifyCache cache;
  std::vector<bool> verdicts =
      cache.VerifyBatch(SignatureScheme::kEd25519, items);
  for (size_t i = 0; i < verdicts.size(); ++i) {
    Check(verdicts[i] == (i != 3), "batch culprit isolation");
  }

  if (g_failures == 0) {
    std::printf("ct_check: %s PASS (%d cross-check rounds, fast and oracle)\n",
                quick ? "smoke" : "suite", rounds);
  }
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "--suite") {
    return RunSuite(/*quick=*/false);
  }
  if (mode == "--smoke") {
    int rc = RunSuite(/*quick=*/true);
    return rc != 0 ? rc : RunTaint();
  }
  if (mode.empty() || mode == "--taint") {
    return RunTaint();
  }
  std::fprintf(stderr, "usage: ct_check [--taint|--suite|--smoke]\n");
  return 2;
}
