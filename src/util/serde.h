// Minimal binary serialization: little-endian fixed-width integers and
// length-prefixed byte strings, and the field-list codec built on them.
// All protocol messages, pledges and certificates are serialized with this
// so that hashes and signatures are computed over a canonical encoding.
#ifndef SDR_SRC_UTIL_SERDE_H_
#define SDR_SRC_UTIL_SERDE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/result.h"

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
  // Marks the buffer corrupt: the bytes were in bounds but not a value the
  // writer emits (an unknown enumerator, say).
  void Fail() { ok_ = false; }
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


// ---- Field-list codec ------------------------------------------------------
//
// A wire type declares its fields once, in wire order, with one line:
//
//   struct VersionToken {
//     uint64_t content_version = 0;
//     ...
//     SDR_WIRE_FIELDS(VersionToken, content_version, timestamp, master,
//                     signature)
//   };
//
// That list is the type's wire format. The macro defines Encode(),
// Decode(BytesView) and EncodeTo(Writer&), all of which walk the list, as
// does WireRead<Type>(Reader&); WireSignedBody() walks it for SignedBody().
// A field is one of:
//   - an unsigned integer, int64_t, double (its IEEE-754 bits) or bool (one
//     byte, 0 or 1): fixed width, little-endian;
//   - an enum over uint8_t: one byte, range-checked on decode against
//     WireEnumLast(E), which the enum's header defines;
//   - Bytes or std::string: u32 length, then the bytes;
//   - std::pair: first, then second;
//   - std::optional<T>: a bool, then the value when it is true;
//   - a type with its own SDR_WIRE_FIELDS: its fields, with no prefix;
//   - std::vector<T>: u32 count, then the elements. For a count read off
//     the wire a decoder reserves at most kWireReserveCap<T> elements, so a
//     hostile count cannot allocate unboundedly;
//   - WireTrailing(f), f a std::optional or std::vector: written only when
//     present (has a value, is non-empty) and read only when bytes remain.
//     It may only be the last field, and only of a type that is never
//     nested in another. A present but empty value is corrupt, so every
//     encoding a decoder accepts is the one its value re-encodes to.
// A decoder stops at the first out-of-bounds read, and a top-level Decode
// requires that the value consumed the whole buffer. Reader appears only in
// this codec: sdrlint's R4 flags it anywhere else, so no decoder can drift
// from the list its encoder walks.

#define SDR_WIRE_FIELDS(Type, ...)                                           \
  template <typename SdrVisit>                                               \
  void WireFields(SdrVisit&& sdr_visit) {                                    \
    sdr_visit(__VA_ARGS__);                                                  \
  }                                                                          \
  template <typename SdrVisit>                                               \
  void WireFields(SdrVisit&& sdr_visit) const {                              \
    sdr_visit(__VA_ARGS__);                                                  \
  }                                                                          \
  ::sdr::Bytes Encode() const { return ::sdr::WireEncode(*this); }           \
  static ::sdr::Result<Type> Decode(::sdr::BytesView body) {                 \
    return ::sdr::WireDecode<Type>(body);                                    \
  }                                                                          \
  void EncodeTo(::sdr::Writer& w) const { ::sdr::WirePut(w, *this); }

// Reservation cap for decoded lists of T; raised for write batches and
// result rows, which run longer (document_store.h, executor.h).
template <typename T>
inline constexpr uint32_t kWireReserveCap = 256;

template <typename T>
struct WireTrailingField {
  T& field;
};

template <typename T>
WireTrailingField<T> WireTrailing(T& field) {
  return {field};
}

namespace wire_internal {

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
inline constexpr bool kIsPair = false;
template <typename A, typename B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

template <typename T>
inline constexpr bool kIsTrailing = false;
template <typename T>
inline constexpr bool kIsTrailing<WireTrailingField<T>> = true;

template <typename T>
inline constexpr bool kIsFixedWidth =
    std::is_same_v<T, uint8_t> || std::is_same_v<T, uint16_t> ||
    std::is_same_v<T, uint32_t> || std::is_same_v<T, uint64_t> ||
    std::is_same_v<T, int64_t> || std::is_same_v<T, bool> ||
    std::is_same_v<T, double>;

template <typename... Fields>
constexpr bool TrailingOnlyLast() {
  constexpr bool trailing[] = {kIsTrailing<std::remove_cvref_t<Fields>>...,
                               false};
  for (size_t i = 0; i + 1 < sizeof...(Fields); ++i) {
    if (trailing[i]) {
      return false;
    }
  }
  return true;
}

// What a trailing field puts on the wire, or null when it is absent.
template <typename T>
const T* TrailingValue(const std::optional<T>& v) {
  return v ? &*v : nullptr;
}
template <typename T>
const std::vector<T>* TrailingValue(const std::vector<T>& v) {
  return v.empty() ? nullptr : &v;
}

// Where a decoder reads a trailing field's value into.
template <typename T>
T& Emplace(std::optional<T>& v) {
  return v.emplace();
}
template <typename T>
std::vector<T>& Emplace(std::vector<T>& v) {
  return v;
}

}  // namespace wire_internal

// Exact encoded size of `v`, walking the same list as WirePut.
template <typename T>
size_t WireSize(const T& v) {
  using namespace wire_internal;
  if constexpr (std::is_enum_v<T> || kIsFixedWidth<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, Bytes> ||
                       std::is_same_v<T, std::string>) {
    return 4 + v.size();
  } else if constexpr (kIsPair<T>) {
    return WireSize(v.first) + WireSize(v.second);
  } else if constexpr (kIsOptional<T>) {
    return 1 + (v ? WireSize(*v) : 0);
  } else if constexpr (kIsVector<T>) {
    size_t n = 4;
    for (const auto& e : v) {
      n += WireSize(e);
    }
    return n;
  } else if constexpr (kIsTrailing<T>) {
    const auto* value = TrailingValue(v.field);
    return value != nullptr ? WireSize(*value) : 0;
  } else {
    size_t n = 0;
    v.WireFields([&n](const auto&... f) { n = (WireSize(f) + ... + 0); });
    return n;
  }
}

template <typename T>
void WirePut(Writer& w, const T& v) {
  using namespace wire_internal;
  if constexpr (std::is_same_v<T, bool>) {
    w.Bool(v);
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(std::is_same_v<std::underlying_type_t<T>, uint8_t>);
    w.U8(static_cast<uint8_t>(v));
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    w.U8(v);
  } else if constexpr (std::is_same_v<T, uint16_t>) {
    w.U16(v);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    w.U32(v);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    w.U64(v);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    w.I64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.Double(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w.Blob(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.Blob(std::string_view(v));
  } else if constexpr (kIsPair<T>) {
    WirePut(w, v.first);
    WirePut(w, v.second);
  } else if constexpr (kIsOptional<T>) {
    w.Bool(v.has_value());
    if (v) {
      WirePut(w, *v);
    }
  } else if constexpr (kIsVector<T>) {
    w.U32(static_cast<uint32_t>(v.size()));
    for (const auto& e : v) {
      WirePut(w, e);
    }
  } else if constexpr (kIsTrailing<T>) {
    if (const auto* value = TrailingValue(v.field)) {
      WirePut(w, *value);
    }
  } else {
    v.WireFields([&w](const auto&... f) {
      static_assert(TrailingOnlyLast<decltype(f)...>(),
                    "a trailing field must be the last field");
      (WirePut(w, f), ...);
    });
  }
}

template <typename T>
void WireGet(Reader& r, T& v) {
  using namespace wire_internal;
  if constexpr (std::is_same_v<T, bool>) {
    v = r.Bool();
  } else if constexpr (std::is_enum_v<T>) {
    uint8_t raw = r.U8();
    if (raw > static_cast<uint8_t>(WireEnumLast(T{}))) {
      r.Fail();
    } else {
      v = static_cast<T>(raw);
    }
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    v = r.U8();
  } else if constexpr (std::is_same_v<T, uint16_t>) {
    v = r.U16();
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    v = r.U32();
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    v = r.U64();
  } else if constexpr (std::is_same_v<T, int64_t>) {
    v = r.I64();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.Double();
  } else if constexpr (std::is_same_v<T, Bytes>) {
    v = r.Blob();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.BlobString();
  } else if constexpr (kIsPair<T>) {
    WireGet(r, v.first);
    WireGet(r, v.second);
  } else if constexpr (kIsOptional<T>) {
    v.reset();
    if (r.Bool()) {
      WireGet(r, v.emplace());
    }
  } else if constexpr (kIsVector<T>) {
    using Element = typename T::value_type;
    uint32_t n = r.U32();
    v.clear();
    v.reserve(std::min(n, kWireReserveCap<Element>));
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      WireGet(r, v.emplace_back());
    }
  } else if constexpr (kIsTrailing<T>) {
    if (r.remaining() > 0) {
      WireGet(r, Emplace(v.field));
      if (TrailingValue(v.field) == nullptr) {
        r.Fail();
      }
    }
  } else {
    v.WireFields([&r](auto&&... f) { (WireGet(r, f), ...); });
  }
}

template <typename T>
T WireRead(Reader& r) {
  T v{};
  WireGet(r, v);
  return v;
}

template <typename T>
Bytes WireEncode(const T& v) {
  Writer w;
  w.Reserve(WireSize(v));
  WirePut(w, v);
  return w.Take();
}

// Decodes a whole buffer. A type may add a check of its own that the
// format alone cannot express, as `bool WireValid() const`.
template <typename T>
Result<T> WireDecode(BytesView body) {
  Reader r(body);
  T v = WireRead<T>(r);
  if (!r.Done()) {
    return Error(ErrorCode::kCorrupt, "bad wire encoding");
  }
  if constexpr (requires { v.WireValid(); }) {
    if (!v.WireValid()) {
      return Error(ErrorCode::kCorrupt, "invalid wire value");
    }
  }
  return v;
}

// `tag`, then `v`: a message whose type byte leads it. The receiver
// dispatches on the byte and decodes the rest as T.
template <typename T>
Bytes WireEncodeTagged(uint8_t tag, const T& v) {
  Writer w;
  w.Reserve(1 + WireSize(v));
  w.U8(tag);
  WirePut(w, v);
  return w.Take();
}

// Walks one encoded T without building it: the same checks as WireGet,
// with blobs read as views, so nothing is allocated. A struct's field
// types come from one value-initialized instance.
template <typename T>
void WireSkip(Reader& r) {
  using namespace wire_internal;
  if constexpr (std::is_same_v<T, Bytes> || std::is_same_v<T, std::string>) {
    r.BlobView();
  } else if constexpr (std::is_enum_v<T> || kIsFixedWidth<T>) {
    T v{};
    WireGet(r, v);
  } else if constexpr (kIsPair<T>) {
    WireSkip<typename T::first_type>(r);
    WireSkip<typename T::second_type>(r);
  } else if constexpr (kIsOptional<T>) {
    if (r.Bool()) {
      WireSkip<typename T::value_type>(r);
    }
  } else if constexpr (kIsVector<T>) {
    uint32_t n = r.U32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      WireSkip<typename T::value_type>(r);
    }
  } else {
    static_assert(!requires(const T& v) { v.WireValid(); },
                  "WireValid needs the decoded value: use WireDecode");
    static const T kShape{};
    kShape.WireFields([&r](const auto&... f) {
      static_assert(!(kIsTrailing<std::remove_cvref_t<decltype(f)>> || ...),
                    "a trailing field needs the decoded value");
      (WireSkip<std::remove_cvref_t<decltype(f)>>(r), ...);
    });
  }
}

// True when `data` is exactly an encoding of some T: the bytes a T decodes
// from, checked without allocating. Readers that hash the bytes they
// received and parse them later (a result under a pledge) check them with
// this.
template <typename T>
bool WireWellFormed(BytesView data) {
  Reader r(data);
  WireSkip<T>(r);
  return r.Done();
}

// The bytes a signature covers: the length-prefixed domain tag, then
// `prefix` (values the signer binds in but does not send, such as the
// client's nonce), then every field of `v` in wire order except the
// signature itself and the trace id, which is observability metadata and
// no protocol commitment. So a field added to the list is signed unless
// it is one of those two.
template <typename T, typename... Prefix>
Bytes WireSignedBody(const T& v, std::string_view tag,
                     const Prefix&... prefix) {
  auto is_signed = [&v](const auto& field) {
    const void* p = &field;
    if constexpr (requires { v.trace_id; }) {
      if (p == &v.trace_id) {
        return false;
      }
    }
    return p != &v.signature;
  };
  size_t n = 4 + tag.size() + (WireSize(prefix) + ... + 0);
  v.WireFields([&](const auto&... f) {
    ((n += is_signed(f) ? WireSize(f) : 0), ...);
  });
  Writer w;
  w.Reserve(n);
  w.Blob(tag);
  (WirePut(w, prefix), ...);
  v.WireFields([&](const auto&... f) {
    ((is_signed(f) ? WirePut(w, f) : void()), ...);
  });
  return w.Take();
}

}  // namespace sdr

#endif  // SDR_SRC_UTIL_SERDE_H_
