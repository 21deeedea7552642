// The SHA-NI kernels and the cpuid check that gates them. See
// sha_kernels.h. The layout follows Intel's SHA extensions reference: the
// SHA-1 state travels as ABCD plus E in the top lane of a second register,
// and the SHA-256 state as ABEF/CDGH. Each kernel packs the state once per
// call and compresses every block of the run before unpacking it.
#include "src/crypto/sha_kernels.h"

#ifdef SDR_SHA_NI

#include <cpuid.h>
#include <immintrin.h>

#define SDR_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

namespace sdr::sha_internal {

bool CpuHasShaNi() {
  static const bool has = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d)) {
      return false;
    }
    const bool ssse3 = (c & (1u << 9)) != 0;   // leaf 1, ECX
    const bool sse41 = (c & (1u << 19)) != 0;  // leaf 1, ECX
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
      return false;
    }
    const bool sha = (b & (1u << 29)) != 0;  // leaf 7, EBX
    return ssse3 && sse41 && sha;
  }();
  return has;
}

namespace {

// Five groups of four rounds (20 rounds) that share SHA-1's round function
// kF. Group g uses W[4g, 4g + 4), held in w[g & 3]; a group g < 16 then
// overwrites w[g & 3] with W[4g + 16, 4g + 20), computed from the four
// word vectors in hand: W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]).
// Group 0 finds E + W[0, 4) in e; every later group derives its e with
// sha1nexte from prev, ABCD as it was before the previous group.
template <int kF>
SDR_SHA_NI_TARGET inline void Sha1Groups(__m128i& abcd, __m128i& e,
                                         __m128i& prev, __m128i (&w)[4],
                                         int g0) {
#pragma GCC unroll 5
  for (int g = g0; g < g0 + 5; ++g) {
    if (g > 0) {
      e = _mm_sha1nexte_epu32(prev, w[g & 3]);
    }
    prev = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e, kF);
    if (g < 16) {
      w[g & 3] = _mm_sha1msg2_epu32(
          _mm_xor_si128(_mm_sha1msg1_epu32(w[g & 3], w[(g + 1) & 3]),
                        w[(g + 2) & 3]),
          w[(g + 3) & 3]);
    }
  }
}

}  // namespace

SDR_SHA_NI_TARGET void Sha1Ni(uint32_t state[5], const uint8_t* data,
                              size_t n_blocks) {
  // Reverses all 16 bytes: big-endian words, W0 in the top lane.
  const __m128i kSwap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1b);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; n_blocks > 0; --n_blocks, data += 64) {
    __m128i w[4];
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kSwap);
    }
    const __m128i abcd_save = abcd;
    __m128i e = _mm_add_epi32(e0, w[0]);
    __m128i prev = abcd;
    Sha1Groups<0>(abcd, e, prev, w, 0);
    Sha1Groups<1>(abcd, e, prev, w, 5);
    Sha1Groups<2>(abcd, e, prev, w, 10);
    Sha1Groups<3>(abcd, e, prev, w, 15);
    e0 = _mm_sha1nexte_epu32(prev, e0);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1b));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e0, 3));
}

SDR_SHA_NI_TARGET void Sha256Ni(uint32_t state[8], const uint8_t* data,
                                size_t n_blocks) {
  // Byte-swaps each 32-bit lane: big-endian words, W0 in the bottom lane.
  const __m128i kSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const uint32_t* k = Sha256RoundConstants();
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  for (; n_blocks > 0; --n_blocks, data += 64) {
    __m128i w[4];
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kSwap);
    }
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    // Group g: rounds [4g, 4g + 4) on W[4g, 4g + 4), held in w[g & 3].
    // Then W[4g + 16, 4g + 20) replaces it:
    // W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]).
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i wk = _mm_add_epi32(
          w[g & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(k + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      if (g < 12) {
        w[g & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]),
                          _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4)),
            w[(g + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace sdr::sha_internal

#else  // !SDR_SHA_NI

namespace sdr::sha_internal {

bool CpuHasShaNi() {
  return false;
}

}  // namespace sdr::sha_internal

#endif  // SDR_SHA_NI
