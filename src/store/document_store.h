// The replicated data content: an ordered key -> document map supporting
// point writes and the rich read queries the paper requires ("not only
// read FileName, but also grep Expression Path").
#ifndef SDR_SRC_STORE_DOCUMENT_STORE_H_
#define SDR_SRC_STORE_DOCUMENT_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/serde.h"

namespace sdr {

// A single mutation. Batches of these form one committed write (one
// content_version increment).
struct WriteOp {
  enum class Kind : uint8_t { kPut = 0, kDelete = 1, kAppend = 2 };

  Kind kind = Kind::kPut;
  std::string key;
  std::string value;  // unused for kDelete

  static WriteOp Put(std::string key, std::string value) {
    return {Kind::kPut, std::move(key), std::move(value)};
  }
  static WriteOp Delete(std::string key) {
    return {Kind::kDelete, std::move(key), ""};
  }
  static WriteOp Append(std::string key, std::string value) {
    return {Kind::kAppend, std::move(key), std::move(value)};
  }

  SDR_WIRE_FIELDS(WriteOp, kind, key, value)
  friend constexpr Kind WireEnumLast(Kind) { return Kind::kAppend; }

  bool operator==(const WriteOp&) const = default;
};

using WriteBatch = std::vector<WriteOp>;
// A batch decoded off the wire reserves room for at most this many ops.
template <>
inline constexpr uint32_t kWireReserveCap<WriteOp> = 1024;

// In-memory ordered document store. Deterministic iteration order (std::map)
// keeps query results canonical across replicas.
class DocumentStore {
 public:
  using Map = std::map<std::string, std::string>;

  // Applies one mutation. Returns false for no-ops (deleting a missing key).
  bool Apply(const WriteOp& op);
  void ApplyBatch(const WriteBatch& batch);

  std::optional<std::string> Get(const std::string& key) const;
  size_t size() const { return data_.size(); }
  const Map& data() const { return data_; }

  // Iterator range for keys in [lo, hi); empty hi means unbounded.
  Map::const_iterator RangeBegin(const std::string& lo) const;
  Map::const_iterator RangeEnd(const std::string& hi) const;

  // Content fingerprint: SHA-256 over all key/value pairs in order. Used by
  // tests to assert replica convergence and by the Merkle baseline.
  // sdrlint:allow(R9 tests assert replica convergence by it)
  Bytes Fingerprint() const;

 private:
  Map data_;
};

}  // namespace sdr

#endif  // SDR_SRC_STORE_DOCUMENT_STORE_H_
