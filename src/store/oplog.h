// Versioned operation log with periodic snapshots.
//
// content_version starts at 0 when the content is created; each committed
// write batch increments it. Masters and the auditor use the log to
// materialize the store at any historical version: the auditor audits all
// reads pledged at version v before executing the write that produces v+1,
// and masters use it to re-execute double-checked queries at the pledge's
// version (the pledge may lag the master's head by a state update or two).
#ifndef SDR_SRC_STORE_OPLOG_H_
#define SDR_SRC_STORE_OPLOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/store/document_store.h"
#include "src/util/result.h"
#include "src/util/thread_annotations.h"

namespace sdr {

class OpLog {
 public:
  // `snapshot_interval`: a full store snapshot is retained every N versions
  // (plus version 0), bounding replay cost at the price of memory.
  explicit OpLog(uint64_t snapshot_interval = 16);

  // Appends the batch committed as `version`. Must be head_version() + 1.
  void Append(uint64_t version, WriteBatch batch);

  uint64_t head_version() const { return head_version_; }

  // The batch that produced `version`, or nullptr if unknown.
  const WriteBatch* BatchFor(uint64_t version) const;

  // Materializes the store contents at `version` (0 = empty initial
  // content unless a base snapshot was installed). Fails for versions
  // beyond head.
  //
  // Thread-safety: const and touches no mutable state, so concurrent calls
  // are safe as long as nothing mutates the log — the auditor's re-execution
  // pool relies on this (the owning thread is blocked inside the fork-join
  // while lanes materialize).
  Result<DocumentStore> MaterializeAt(uint64_t version) const;

  // The store at `version`, for re-executing a query against it. At the
  // head this is the live store by const reference, so nothing is copied;
  // an older version is materialized into `*scratch`, which must outlive
  // the returned pointer. Fails as MaterializeAt does. Masters never prune
  // their log, so a double-check or an accusation that names the head
  // costs one execution and no copy.
  Result<const DocumentStore*> ReadAt(uint64_t version,
                                      DocumentStore* scratch) const;

  // Shared-snapshot cache: committed versions are immutable, so the store
  // at a version can be materialized once and handed out by reference to
  // every re-execution against it, instead of a full map copy per query
  // (the auditor's old per-pledge MaterializeAt dominated its host CPU).
  // Entries are dropped by PruneBelow alongside the batches.
  //
  // Unlike the rest of OpLog (single-writer, lanes read only through the
  // const MaterializeAt), the cache map itself is guarded by shared_mu_ so
  // worker lanes may probe and adopt concurrently; the DocumentStores it
  // hands out are immutable and need no lock.

  // The cached shared snapshot at `version`, or nullptr if none is cached.
  std::shared_ptr<const DocumentStore> CachedSnapshot(uint64_t version) const;

  // Installs `store` as the shared snapshot for `version` (first insert
  // wins) and returns the cached pointer. The caller asserts `store` is the
  // materialization of `version`; typically it came from MaterializeAt on a
  // worker lane.
  std::shared_ptr<const DocumentStore> AdoptSnapshot(uint64_t version,
                                                     DocumentStore store);

  // Installs the initial content as version 0 (e.g. the corpus the owner
  // created before replication starts).
  void SetBaseSnapshot(DocumentStore base);

  // Live store at head; kept incrementally, cheap to read.
  const DocumentStore& head() const { return head_store_; }

  // Drops batches and snapshots strictly below `version` (the auditor
  // advances this as it finishes auditing old versions).
  void PruneBelow(uint64_t version);

  // sdrlint:allow(R9 tests check pruning bounds the log)
  size_t retained_snapshots() const { return snapshots_.size(); }

 private:
  uint64_t snapshot_interval_;
  uint64_t head_version_ = 0;
  DocumentStore head_store_;
  std::map<uint64_t, WriteBatch> batches_;      // version -> batch
  std::map<uint64_t, DocumentStore> snapshots_;  // version -> full copy
  // Immutable materializations handed out to re-executors; see above.
  mutable std::mutex shared_mu_;
  // sdrlint:guarded_by(shared_mu_)
  std::map<uint64_t, std::shared_ptr<const DocumentStore>> shared_
      SDR_GUARDED_BY(shared_mu_);
};

}  // namespace sdr

#endif  // SDR_SRC_STORE_OPLOG_H_
