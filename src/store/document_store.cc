#include "src/store/document_store.h"

#include "src/crypto/sha2.h"

namespace sdr {

bool DocumentStore::Apply(const WriteOp& op) {
  switch (op.kind) {
    case WriteOp::Kind::kPut:
      data_[op.key] = op.value;
      return true;
    case WriteOp::Kind::kDelete:
      return data_.erase(op.key) > 0;
    case WriteOp::Kind::kAppend:
      data_[op.key] += op.value;
      return true;
  }
  return false;
}

void DocumentStore::ApplyBatch(const WriteBatch& batch) {
  for (const WriteOp& op : batch) {
    Apply(op);
  }
}

std::optional<std::string> DocumentStore::Get(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) {
    return std::nullopt;
  }
  return it->second;
}

DocumentStore::Map::const_iterator DocumentStore::RangeBegin(
    const std::string& lo) const {
  return data_.lower_bound(lo);
}

DocumentStore::Map::const_iterator DocumentStore::RangeEnd(
    const std::string& hi) const {
  return hi.empty() ? data_.end() : data_.lower_bound(hi);
}

Bytes DocumentStore::Fingerprint() const {
  Sha256 h;
  for (const auto& [key, value] : data_) {
    Writer w;
    w.Blob(key);
    w.Blob(value);
    h.Update(w.bytes());
  }
  return h.Final();
}

}  // namespace sdr
