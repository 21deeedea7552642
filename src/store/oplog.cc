#include "src/store/oplog.h"

#include <cassert>

namespace sdr {

OpLog::OpLog(uint64_t snapshot_interval)
    : snapshot_interval_(snapshot_interval == 0 ? 1 : snapshot_interval) {
  snapshots_[0] = DocumentStore();
}

void OpLog::SetBaseSnapshot(DocumentStore base) {
  assert(head_version_ == 0);
  head_store_ = base;
  snapshots_[0] = std::move(base);
}

void OpLog::Append(uint64_t version, WriteBatch batch) {
  assert(version == head_version_ + 1);
  head_store_.ApplyBatch(batch);
  batches_[version] = std::move(batch);
  head_version_ = version;
  if (version % snapshot_interval_ == 0) {
    snapshots_[version] = head_store_;
  }
}

const WriteBatch* OpLog::BatchFor(uint64_t version) const {
  auto it = batches_.find(version);
  return it == batches_.end() ? nullptr : &it->second;
}

Result<DocumentStore> OpLog::MaterializeAt(uint64_t version) const {
  if (version > head_version_) {
    return Error(ErrorCode::kNotFound,
                 "version " + std::to_string(version) + " beyond head " +
                     std::to_string(head_version_));
  }
  if (version == head_version_) {
    return head_store_;
  }
  // Latest snapshot at or below `version`.
  auto snap = snapshots_.upper_bound(version);
  if (snap == snapshots_.begin()) {
    return Error(ErrorCode::kNotFound, "snapshot pruned below requested version");
  }
  --snap;
  DocumentStore store = snap->second;
  for (uint64_t v = snap->first + 1; v <= version; ++v) {
    auto it = batches_.find(v);
    if (it == batches_.end()) {
      return Error(ErrorCode::kNotFound,
                   "batch " + std::to_string(v) + " pruned");
    }
    store.ApplyBatch(it->second);
  }
  return store;
}

Result<const DocumentStore*> OpLog::ReadAt(uint64_t version,
                                          DocumentStore* scratch) const {
  if (version == head_version_) {
    return &head_store_;
  }
  auto store = MaterializeAt(version);
  if (!store.ok()) {
    return store.error();
  }
  *scratch = std::move(store).value();
  return scratch;
}

std::shared_ptr<const DocumentStore> OpLog::CachedSnapshot(
    uint64_t version) const {
  std::lock_guard<std::mutex> lock(shared_mu_);
  auto it = shared_.find(version);
  return it == shared_.end() ? nullptr : it->second;
}

std::shared_ptr<const DocumentStore> OpLog::AdoptSnapshot(
    uint64_t version, DocumentStore store) {
  // Build outside the lock (a DocumentStore move is cheap, but the
  // make_shared allocation need not serialize lanes), insert under it.
  auto built = std::make_shared<const DocumentStore>(std::move(store));
  std::lock_guard<std::mutex> lock(shared_mu_);
  auto it = shared_.find(version);
  if (it != shared_.end()) {
    return it->second;  // first insert won; drop ours
  }
  shared_[version] = built;
  return built;
}

void OpLog::PruneBelow(uint64_t version) {
  // Keep the newest snapshot at or below `version` so MaterializeAt(version)
  // still works; drop everything older.
  auto keep = snapshots_.upper_bound(version);
  if (keep != snapshots_.begin()) {
    --keep;
    snapshots_.erase(snapshots_.begin(), keep);
  }
  // Replay always starts from the newest snapshot at or below the requested
  // version, so batches in (kept snapshot, version) are still needed to
  // materialize versions in [version, head]. Only batches at or below the
  // kept snapshot can never be replayed again.
  uint64_t floor = snapshots_.empty() ? version : snapshots_.begin()->first;
  batches_.erase(batches_.begin(), batches_.upper_bound(floor));
  // Shared materializations below `version` can never be requested again.
  std::lock_guard<std::mutex> lock(shared_mu_);
  shared_.erase(shared_.begin(), shared_.lower_bound(version));
}

}  // namespace sdr
