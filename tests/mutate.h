// Seeded frame mutation shared by the decoder robustness tests (a
// deterministic, in-repo stand-in for a coverage-guided fuzzer).
#ifndef SDR_TESTS_MUTATE_H_
#define SDR_TESTS_MUTATE_H_

#include <cstdint>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace sdr {

// One to four random edits: bit flips, byte overwrites, truncation,
// insertion, a length-like u32 planted anywhere, or a splice with the tail
// of another frame.
inline Bytes Mutate(Bytes b, Rng& rng, const std::vector<Bytes>& corpus) {
  for (uint64_t edits = 1 + rng.NextBounded(4); edits > 0; --edits) {
    const size_t pos = b.empty() ? 0 : rng.NextBounded(b.size());
    switch (rng.NextBounded(6)) {
      case 0:
        if (!b.empty()) {
          b[pos] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
        }
        break;
      case 1:
        if (!b.empty()) {
          b[pos] = static_cast<uint8_t>(rng.NextBounded(256));
        }
        break;
      case 2:
        b.resize(pos);
        break;
      case 3:
        b.insert(b.begin() + static_cast<long>(pos),
                 static_cast<uint8_t>(rng.NextBounded(256)));
        break;
      case 4: {
        const uint32_t values[] = {0, 1, 0x7fffffff, 0xffffffff,
                                   static_cast<uint32_t>(b.size())};
        uint32_t v = values[rng.NextBounded(5)];
        for (size_t i = 0; i < 4 && pos + i < b.size(); ++i) {
          b[pos + i] = static_cast<uint8_t>(v >> (8 * i));
        }
        break;
      }
      default: {
        const Bytes& other = corpus[rng.NextBounded(corpus.size())];
        size_t from = rng.NextBounded(other.size() + 1);
        b.resize(pos);
        b.insert(b.end(), other.begin() + static_cast<long>(from),
                 other.end());
        break;
      }
    }
  }
  return b;
}

}  // namespace sdr

#endif  // SDR_TESTS_MUTATE_H_
