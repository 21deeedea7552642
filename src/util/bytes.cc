#include "src/util/bytes.h"

namespace sdr {

Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string ToString(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

static int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

Bytes HexDecode(std::string_view hex, bool* ok) {
  Bytes out;
  if (hex.size() % 2 != 0) {
    if (ok != nullptr) {
      *ok = false;
    }
    return out;
  }
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      if (ok != nullptr) {
        *ok = false;
      }
      return Bytes();
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  if (ok != nullptr) {
    *ok = true;
  }
  return out;
}

void Append(Bytes& dst, const Bytes& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void Append(Bytes& dst, std::string_view src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

bool ConstantTimeEquals(const Bytes& a, const Bytes& b) {
  if (a.size() != b.size()) {
    return false;
  }
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return diff == 0;
}

}  // namespace sdr
