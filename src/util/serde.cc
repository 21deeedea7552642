#include "src/util/serde.h"

#include <cstring>

namespace sdr {

void Writer::U16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::Double(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void Writer::Blob(const Bytes& b) {
  U32(static_cast<uint32_t>(b.size()));
  Raw(b);
}

void Writer::Blob(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::Raw(const Bytes& b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Writer::Raw(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

bool Reader::Need(size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t Reader::U8() {
  if (!Need(1)) {
    return 0;
  }
  return data_[pos_++];
}

uint16_t Reader::U16() {
  if (!Need(2)) {
    return 0;
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

uint32_t Reader::U32() {
  if (!Need(4)) {
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t Reader::U64() {
  if (!Need(8)) {
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

double Reader::Double() {
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Bytes Reader::Blob() {
  uint32_t len = U32();
  return Raw(len);
}

BytesView Reader::BlobView() {
  uint32_t len = U32();
  if (!Need(len)) {
    return BytesView();
  }
  BytesView out(data_ + pos_, len);
  pos_ += len;
  return out;
}

std::string Reader::BlobString() {
  Bytes b = Blob();
  return std::string(b.begin(), b.end());
}

Bytes Reader::Raw(size_t len) {
  if (!Need(len)) {
    return Bytes();
  }
  Bytes out(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return out;
}

}  // namespace sdr
