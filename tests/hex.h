// Lower-case hex rendering of bytes, for test expectations and failure
// messages. Production code only decodes hex (HexDecode, src/util/bytes.h).
#ifndef SDR_TESTS_HEX_H_
#define SDR_TESTS_HEX_H_

#include <string>

#include "src/util/bytes.h"

namespace sdr {

inline std::string HexEncode(const Bytes& b) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t byte : b) {
    out.push_back(kHexDigits[byte >> 4]);
    out.push_back(kHexDigits[byte & 0x0f]);
  }
  return out;
}

}  // namespace sdr

#endif  // SDR_TESTS_HEX_H_
