// Deterministic pseudo-random number generation. Every simulation takes an
// explicit seed so runs are exactly reproducible; nothing in the protocol
// path reads entropy from the host.
#ifndef SDR_SRC_UTIL_RNG_H_
#define SDR_SRC_UTIL_RNG_H_

#include <cstdint>

#include "src/util/bytes.h"

namespace sdr {

// xoshiro256** seeded via splitmix64. Small, fast, and good enough for
// workload generation and protocol randomness (not for key generation in a
// real deployment; fine for a simulator where determinism is the point).
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t Next();

  // Uniform in [0, bound) using rejection to avoid modulo bias. bound > 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in the closed interval [lo, hi].
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Bernoulli trial with success probability p.
  bool NextBool(double p);

  // Exponentially distributed value with the given mean (> 0).
  double NextExponential(double mean);

  // `n` pseudo-random bytes (used for deterministic key generation in the
  // simulator).
  Bytes NextBytes(size_t n);

  // Derives an independent child generator; used to give each simulated
  // node its own stream so adding a node does not perturb the others.
  Rng Fork();

 private:
  uint64_t s_[4];
};

}  // namespace sdr

#endif  // SDR_SRC_UTIL_RNG_H_
