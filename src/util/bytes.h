// Byte-buffer primitives shared across the library.
#ifndef SDR_SRC_UTIL_BYTES_H_
#define SDR_SRC_UTIL_BYTES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sdr {

// The universal wire/byte-string type used for messages, keys, hashes and
// signatures throughout the library.
using Bytes = std::vector<uint8_t>;

// The order std::less<Bytes> gives, for map keys. std::less goes through
// vector's operator<=>, which GCC 12 at -O3 misreads as a memcmp of up to
// SIZE_MAX bytes (-Wstringop-overread) once a map insert is inlined.
struct BytesLess {
  bool operator()(const Bytes& a, const Bytes& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

// A non-owning view over a byte range (the Bytes analogue of
// std::string_view). Decoders take BytesView so a sub-range of a received
// payload can be parsed without copying it out first.
class BytesView {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  constexpr BytesView() = default;
  constexpr BytesView(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}
  BytesView(const Bytes& b)  // NOLINT(google-explicit-constructor)
      : data_(b.data()), size_(b.size()) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data_[i]; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }

  // Sub-view clamped to the underlying range.
  BytesView substr(size_t pos, size_t count = npos) const {
    if (pos > size_) {
      pos = size_;
    }
    size_t n = size_ - pos;
    return BytesView(data_ + pos, count < n ? count : n);
  }

  Bytes ToBytes() const { return Bytes(data_, data_ + size_); }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

// A ref-counted immutable byte buffer plus an (offset, length) window: the
// copy-free message payload. Sending one buffer to N receivers bumps a
// refcount N times instead of copying the bytes N times, and a handler
// that stashes the payload keeps the buffer alive for free. The refcount
// is atomic (std::shared_ptr) so thread-confined simulators in a parallel
// seed sweep can pass payloads without data races.
class Payload {
 public:
  Payload() = default;
  Payload(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : buf_(std::make_shared<const Bytes>(std::move(bytes))),
        offset_(0),
        len_(buf_->size()) {}

  const uint8_t* data() const {
    return buf_ == nullptr ? nullptr : buf_->data() + offset_;
  }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  uint8_t operator[](size_t i) const { return data()[i]; }

  BytesView view() const { return BytesView(data(), len_); }
  operator BytesView() const {  // NOLINT(google-explicit-constructor)
    return view();
  }

  // A sub-window sharing the same buffer (no copy).
  // sdrlint:allow(R9 Payload's sharing window, exercised by util_test and
  // bench_sim_core)
  Payload Slice(size_t pos, size_t count = BytesView::npos) const {
    Payload p;
    if (pos > len_) {
      pos = len_;
    }
    size_t n = len_ - pos;
    p.buf_ = buf_;
    p.offset_ = offset_ + pos;
    p.len_ = count < n ? count : n;
    return p;
  }

  Bytes ToBytes() const { return view().ToBytes(); }

 private:
  std::shared_ptr<const Bytes> buf_;
  size_t offset_ = 0;
  size_t len_ = 0;
};

// Converts a string's contents to Bytes (no encoding applied).
Bytes ToBytes(std::string_view s);

// Converts Bytes back to a std::string (no encoding applied).
std::string ToString(const Bytes& b);

// Decodes a hex string. Returns an empty vector and sets *ok=false when the
// input has odd length or non-hex characters; *ok may be null.
Bytes HexDecode(std::string_view hex, bool* ok = nullptr);

// Appends `src` to `dst`.
void Append(Bytes& dst, const Bytes& src);
void Append(Bytes& dst, std::string_view src);

// Constant-time equality for secret-dependent comparisons (signatures,
// MACs). Returns false on length mismatch without early exit on content.
bool ConstantTimeEquals(const Bytes& a, const Bytes& b);

}  // namespace sdr

#endif  // SDR_SRC_UTIL_BYTES_H_
