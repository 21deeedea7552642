// Query execution with a work-unit cost model and canonical results.
//
// The paper's load arguments (offloading reads to slaves, auditor
// throughput, master double-check overhead) are about *work*, so every
// execution reports a cost in work units alongside the result:
//   GET                    -> 1
//   SCAN / aggregates      -> rows touched (min 1)
//   GREP                   -> rows touched * (1 + value_len / 64)  (regex)
// Benchmarks map work units to simulated service time.
//
// QueryResult has a canonical binary encoding; its SHA-1 is what slaves put
// in pledge packets, so any two honest replicas at the same content_version
// must produce byte-identical encodings. DocumentStore's ordered map makes
// row order deterministic.
#ifndef SDR_SRC_STORE_EXECUTOR_H_
#define SDR_SRC_STORE_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "src/store/document_store.h"
#include "src/store/query.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace sdr {

// A result decoded off the wire reserves room for at most this many rows.
template <>
inline constexpr uint32_t kWireReserveCap<std::pair<std::string, std::string>> =
    4096;

struct QueryResult {
  enum class Type : uint8_t { kNone = 0, kRows = 1, kScalar = 2 };
  friend constexpr Type WireEnumLast(Type) { return Type::kScalar; }

  Type type = Type::kNone;
  // kRows: matching key/value pairs in key order.
  std::vector<std::pair<std::string, std::string>> rows;
  // kScalar: COUNT/SUM/MIN/MAX; AVG is reported in fixed-point
  // milli-units (floor(1000 * sum / count)) to stay integer-deterministic.
  int64_t scalar = 0;
  // True when a scalar aggregate had no input rows (empty MIN/MAX/AVG).
  bool empty_aggregate = false;

  // Readers hash the result bytes they received and check them with
  // WireWellFormed<QueryResult>, which accepts exactly what Decode does, so
  // two different byte strings never stand for one result.
  SDR_WIRE_FIELDS(QueryResult, type, rows, scalar, empty_aggregate)

  // SHA-1 of the canonical encoding — the digest embedded in pledges.
  Bytes Sha1Digest() const;

  bool operator==(const QueryResult&) const = default;
};

// Executes queries against a DocumentStore. Stateless apart from a compiled
// regex cache (which the auditor's cache-ablation benchmark toggles).
class QueryExecutor {
 public:
  struct Outcome {
    QueryResult result;
    uint64_t cost = 0;  // work units
  };

  explicit QueryExecutor(bool cache_regex = true)
      : cache_regex_(cache_regex) {}

  // Executes `q` against `store`. Fails only on invalid queries (bad regex,
  // unknown kind); missing keys produce an empty result, not an error.
  Result<Outcome> Execute(const DocumentStore& store, const Query& q);

  // sdrlint:allow(R9 tests check the compiled-pattern cache)
  uint64_t regex_cache_hits() const { return regex_cache_hits_; }

 private:
  const std::regex* CompiledPattern(const std::string& pattern);

  bool cache_regex_;
  std::map<std::string, std::regex> regex_cache_;
  std::regex scratch_;  // used when caching is disabled
  uint64_t regex_cache_hits_ = 0;
};

// True when applying `batch` could change the result of `q`: some written
// (or deleted) key falls inside the query's key footprint. GET reads one
// key; every other kind reads [range_lo, range_hi) with "" meaning
// unbounded on either side. Conservative — a touched key inside the range
// counts as interference even if the value is unchanged — so a `false` is
// a proof that re-executing `q` before and after the batch yields the same
// result. The auditor's cross-version memo rides on that proof.
bool QueryAffectedBy(const Query& q, const WriteBatch& batch);

}  // namespace sdr

#endif  // SDR_SRC_STORE_EXECUTOR_H_
