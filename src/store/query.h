// The read-query language. A Query is what a client sends to a slave, what
// a pledge packet embeds, and what the auditor re-executes. Two cost
// classes deliberately coexist:
//   - cheap point lookups (GET)
//   - expensive whole-range operations (SCAN / GREP / aggregates), the
//     "grep Expression Path" class the paper uses to motivate offloading
//     reads to slaves.
//
// Text syntax (parsed by Query::Parse):
//   GET <key>
//   SCAN <lo> <hi> [<limit>]       keys in [lo, hi), empty-string hi = "*"
//   GREP <pattern> [<lo> <hi>]     regex over values
//   COUNT [<lo> <hi>]
//   SUM | MIN | MAX | AVG [<lo> <hi>]   over integer-valued documents
#ifndef SDR_SRC_STORE_QUERY_H_
#define SDR_SRC_STORE_QUERY_H_

#include <cstdint>
#include <string>

#include "src/util/bytes.h"
#include "src/util/result.h"
#include "src/util/serde.h"

namespace sdr {

enum class QueryKind : uint8_t {
  kGet = 0,
  kScan = 1,
  kGrep = 2,
  kCount = 3,
  kSum = 4,
  kMin = 5,
  kMax = 6,
  kAvg = 7,
};

const char* QueryKindName(QueryKind kind);
constexpr QueryKind WireEnumLast(QueryKind) { return QueryKind::kAvg; }

struct Query {
  QueryKind kind = QueryKind::kGet;
  std::string key;       // kGet only
  std::string range_lo;  // range queries; empty = from start
  std::string range_hi;  // exclusive; empty = to end
  std::string pattern;   // kGrep only (ECMAScript regex)
  uint32_t limit = 0;    // kScan/kGrep row cap; 0 = unlimited

  static Query Get(std::string key);
  static Query Scan(std::string lo, std::string hi, uint32_t limit = 0);
  static Query Grep(std::string pattern, std::string lo = "",
                    std::string hi = "");
  static Query Aggregate(QueryKind kind, std::string lo = "",
                         std::string hi = "");

  // Canonical binary encoding (hashed into pledges — must be deterministic).
  SDR_WIRE_FIELDS(Query, kind, key, range_lo, range_hi, pattern, limit)

  // Human-readable round-trippable text form.
  // sdrlint:allow(R9 Parse's inverse; tests round-trip and print queries with
  // it)
  std::string ToText() const;
  static Result<Query> Parse(const std::string& text);

  bool operator==(const Query&) const = default;
};

}  // namespace sdr

#endif  // SDR_SRC_STORE_QUERY_H_
