#include "src/store/executor.h"

#include <algorithm>
#include <utility>

#include "src/crypto/sha1.h"

namespace sdr {

Bytes QueryResult::Sha1Digest() const {
  return Sha1::Hash(Encode());
}

namespace {

// True when `p` contains no ECMAScript metacharacter, i.e. regex_search
// (p) is exactly substring search. The workload's canned grep patterns are
// plain vocabulary words, so the hot path never builds a regex machine.
bool IsLiteralPattern(const std::string& p) {
  for (char c : p) {
    switch (c) {
      case '.':
      case '^':
      case '$':
      case '|':
      case '(':
      case ')':
      case '[':
      case ']':
      case '{':
      case '}':
      case '*':
      case '+':
      case '?':
      case '\\':
        return false;
      default:
        break;
    }
  }
  return true;
}

// The rows in [q.range_lo, q.range_hi), "" meaning unbounded. An inverted
// range (lo past hi) is empty: walking from lower_bound(lo) would never
// meet lower_bound(hi) and run off the end of the map.
std::pair<DocumentStore::Map::const_iterator,
          DocumentStore::Map::const_iterator>
KeyRange(const DocumentStore& store, const Query& q) {
  auto end = store.RangeEnd(q.range_hi);
  if (!q.range_hi.empty() && q.range_hi < q.range_lo) {
    return {end, end};
  }
  return {store.RangeBegin(q.range_lo), end};
}

}  // namespace

const std::regex* QueryExecutor::CompiledPattern(const std::string& pattern) {
  if (cache_regex_) {
    auto it = regex_cache_.find(pattern);
    if (it != regex_cache_.end()) {
      ++regex_cache_hits_;
      return &it->second;
    }
    auto [pos, inserted] = regex_cache_.emplace(
        pattern, std::regex(pattern, std::regex::ECMAScript));
    (void)inserted;
    return &pos->second;
  }
  scratch_ = std::regex(pattern, std::regex::ECMAScript);
  return &scratch_;
}

Result<QueryExecutor::Outcome> QueryExecutor::Execute(
    const DocumentStore& store, const Query& q) {
  Outcome out;
  QueryResult& res = out.result;

  switch (q.kind) {
    case QueryKind::kGet: {
      res.type = QueryResult::Type::kRows;
      out.cost = 1;
      auto v = store.Get(q.key);
      if (v.has_value()) {
        res.rows.emplace_back(q.key, *v);
      }
      return out;
    }
    case QueryKind::kScan: {
      res.type = QueryResult::Type::kRows;
      auto [it, end] = KeyRange(store, q);
      for (; it != end; ++it) {
        ++out.cost;
        if (q.limit > 0 && res.rows.size() >= q.limit) {
          break;
        }
        res.rows.emplace_back(it->first, it->second);
      }
      out.cost = std::max<uint64_t>(out.cost, 1);
      return out;
    }
    case QueryKind::kGrep: {
      res.type = QueryResult::Type::kRows;
      // Literal patterns (the common case) match by substring search;
      // regex_search over a metacharacter-free ECMAScript pattern is
      // exactly std::string::find, minus the regex engine and its
      // per-match allocations.
      const bool literal = IsLiteralPattern(q.pattern);
      const std::regex* re = nullptr;
      if (!literal) {
        try {
          re = CompiledPattern(q.pattern);
        } catch (const std::regex_error&) {
          return Error(ErrorCode::kParseError, "bad regex: " + q.pattern);
        }
      }
      auto [it, end] = KeyRange(store, q);
      for (; it != end; ++it) {
        out.cost += 1 + it->second.size() / 64;
        if (q.limit > 0 && res.rows.size() >= q.limit) {
          break;
        }
        bool match = literal ? it->second.find(q.pattern) != std::string::npos
                             : std::regex_search(it->second, *re);
        if (match) {
          res.rows.emplace_back(it->first, it->second);
        }
      }
      out.cost = std::max<uint64_t>(out.cost, 1);
      return out;
    }
    case QueryKind::kCount:
    case QueryKind::kSum:
    case QueryKind::kMin:
    case QueryKind::kMax:
    case QueryKind::kAvg: {
      res.type = QueryResult::Type::kScalar;
      auto [it, end] = KeyRange(store, q);
      int64_t count = 0;
      int64_t sum = 0;
      int64_t min_v = 0;
      int64_t max_v = 0;
      int64_t numeric = 0;
      for (; it != end; ++it) {
        ++out.cost;
        ++count;
        int64_t value = 0;
        bool is_numeric = false;
        try {
          size_t pos = 0;
          value = std::stoll(it->second, &pos);
          is_numeric = pos == it->second.size();
        } catch (...) {
          is_numeric = false;
        }
        if (is_numeric) {
          if (numeric == 0) {
            min_v = max_v = value;
          } else {
            min_v = std::min(min_v, value);
            max_v = std::max(max_v, value);
          }
          sum += value;
          ++numeric;
        }
      }
      out.cost = std::max<uint64_t>(out.cost, 1);
      switch (q.kind) {
        case QueryKind::kCount:
          res.scalar = count;
          break;
        case QueryKind::kSum:
          res.scalar = sum;
          res.empty_aggregate = numeric == 0;
          break;
        case QueryKind::kMin:
          res.scalar = min_v;
          res.empty_aggregate = numeric == 0;
          break;
        case QueryKind::kMax:
          res.scalar = max_v;
          res.empty_aggregate = numeric == 0;
          break;
        case QueryKind::kAvg:
          res.scalar = numeric == 0 ? 0 : 1000 * sum / numeric;
          res.empty_aggregate = numeric == 0;
          break;
        default:
          break;
      }
      return out;
    }
  }
  return Error(ErrorCode::kInvalidArgument, "unknown query kind");
}

bool QueryAffectedBy(const Query& q, const WriteBatch& batch) {
  if (q.kind == QueryKind::kGet) {
    for (const WriteOp& op : batch) {
      if (op.key == q.key) {
        return true;
      }
    }
    return false;
  }
  // Range footprint: [range_lo, range_hi), empty bound = unbounded.
  for (const WriteOp& op : batch) {
    if (!q.range_lo.empty() && op.key < q.range_lo) {
      continue;
    }
    if (!q.range_hi.empty() && op.key >= q.range_hi) {
      continue;
    }
    return true;
  }
  return false;
}

}  // namespace sdr
