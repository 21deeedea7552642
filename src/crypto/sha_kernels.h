// SHA-1 and SHA-256 compression kernels. Each compresses n_blocks
// consecutive 64-byte blocks into a state of big-endian-order words
// (h0..h4 or h0..h7). There are two of each:
//   - the portable kernel, plain C++ that runs on every host. It is the
//     fallback and the oracle the tests hold the other kernel to;
//   - the SHA-NI kernel (x86 sha1rnds4/sha256rnds2 and their schedule
//     instructions). It is compiled with a function target attribute, not
//     -march, so the same binary still runs where the CPU lacks it.
// Sha1 and Sha256 call Sha1Compress()/Sha256Compress(), which pick one
// kernel on first use from cpuid and keep it for the life of the process.
// No flag, option or environment variable changes the choice.
#ifndef SDR_SRC_CRYPTO_SHA_KERNELS_H_
#define SDR_SRC_CRYPTO_SHA_KERNELS_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SDR_SHA_NI 1
#endif

namespace sdr::sha_internal {

// The initial states (FIPS 180-4 §5.3.1, §5.3.3).
inline constexpr uint32_t kSha1Init[5] = {0x67452301u, 0xefcdab89u,
                                          0x98badcfeu, 0x10325476u,
                                          0xc3d2e1f0u};
inline constexpr uint32_t kSha256Init[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};

using Sha1Kernel = void (*)(uint32_t state[5], const uint8_t* data,
                            size_t n_blocks);
using Sha256Kernel = void (*)(uint32_t state[8], const uint8_t* data,
                              size_t n_blocks);

void Sha1Portable(uint32_t state[5], const uint8_t* data, size_t n_blocks);
void Sha256Portable(uint32_t state[8], const uint8_t* data, size_t n_blocks);

// SHA-256's 64 round constants, which both SHA-256 kernels use.
const uint32_t* Sha256RoundConstants();

#ifdef SDR_SHA_NI
// Only call these when CpuHasShaNi() is true: elsewhere they fault.
void Sha1Ni(uint32_t state[5], const uint8_t* data, size_t n_blocks);
void Sha256Ni(uint32_t state[8], const uint8_t* data, size_t n_blocks);
#endif

// True when cpuid reports SHA (leaf 7, EBX bit 29), SSSE3 and SSE4.1:
// everything the SHA-NI kernels use. Always false off x86-64.
bool CpuHasShaNi();

// The kernels Sha1 and Sha256 use: the SHA-NI ones when CpuHasShaNi(),
// else the portable ones. Chosen once, on first call.
Sha1Kernel Sha1Compress();
Sha256Kernel Sha256Compress();

}  // namespace sdr::sha_internal

#endif  // SDR_SRC_CRYPTO_SHA_KERNELS_H_
