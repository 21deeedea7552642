#include "src/util/rng.h"

#include <cmath>

namespace sdr {

static uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) {
    s = SplitMix64(x);
  }
}

static inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

uint64_t Rng::Next() {
  uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  // Rejection sampling to remove modulo bias.
  uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::NextExponential(double mean) {
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 1e-18;
  }
  return -mean * std::log(u);
}

Bytes Rng::NextBytes(size_t n) {
  Bytes out(n);
  size_t i = 0;
  while (i < n) {
    uint64_t v = Next();
    for (int b = 0; b < 8 && i < n; ++b, ++i) {
      out[i] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
  return out;
}

Rng Rng::Fork() {
  return Rng(Next());
}

}  // namespace sdr
