// Minimal binary serialization: little-endian fixed-width integers and
// length-prefixed byte strings. All protocol messages, pledges and
// certificates are serialized with this so that hashes and signatures are
// computed over a canonical encoding.
#ifndef SDR_SRC_UTIL_SERDE_H_
#define SDR_SRC_UTIL_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/bytes.h"

namespace sdr {

// Appends primitive values to a growing byte buffer.
class Writer {
 public:
  Writer() = default;

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Double(double v);

  // Length-prefixed (u32) byte string.
  void Blob(const Bytes& b);
  void Blob(std::string_view s);

  // Raw bytes without a length prefix (for fixed-size fields like hashes).
  void Raw(const Bytes& b);
  void Raw(const uint8_t* data, size_t len);

  // Pre-sizes the buffer for `n` further bytes. Hot paths that know their
  // encoded size (pledge and token signing bodies, built for every read)
  // use this to avoid the push_back regrowth reallocations.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

// Reads primitive values back. On any out-of-bounds access the reader
// enters a failed state; callers check ok() once at the end (monadic
// error handling keeps message-decoding code flat).
class Reader {
 public:
  explicit Reader(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  explicit Reader(BytesView buf) : data_(buf.data()), size_(buf.size()) {}
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  // Canonical: the writer only ever emits 0 or 1, so any other byte marks
  // the buffer corrupt. This keeps decoders prefix-hostile — random bytes
  // cannot masquerade as a bool field.
  bool Bool() {
    uint8_t v = U8();
    if (v > 1) {
      ok_ = false;
      return false;
    }
    return v == 1;
  }
  double Double();

  Bytes Blob();
  std::string BlobString();
  // The next blob as a view into the buffer, without copying it out.
  BytesView BlobView();

  // Reads exactly `len` raw bytes.
  Bytes Raw(size_t len);

  bool ok() const { return ok_; }
  // True when the whole buffer has been consumed and no error occurred.
  bool Done() const { return ok_ && pos_ == size_; }
  size_t remaining() const { return ok_ ? size_ - pos_ : 0; }

 private:
  bool Need(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace sdr

#endif  // SDR_SRC_UTIL_SERDE_H_
