#include "src/store/query.h"

#include <sstream>
#include <vector>

namespace sdr {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kGet:
      return "GET";
    case QueryKind::kScan:
      return "SCAN";
    case QueryKind::kGrep:
      return "GREP";
    case QueryKind::kCount:
      return "COUNT";
    case QueryKind::kSum:
      return "SUM";
    case QueryKind::kMin:
      return "MIN";
    case QueryKind::kMax:
      return "MAX";
    case QueryKind::kAvg:
      return "AVG";
  }
  return "?";
}

Query Query::Get(std::string key) {
  Query q;
  q.kind = QueryKind::kGet;
  q.key = std::move(key);
  return q;
}

Query Query::Scan(std::string lo, std::string hi, uint32_t limit) {
  Query q;
  q.kind = QueryKind::kScan;
  q.range_lo = std::move(lo);
  q.range_hi = std::move(hi);
  q.limit = limit;
  return q;
}

Query Query::Grep(std::string pattern, std::string lo, std::string hi) {
  Query q;
  q.kind = QueryKind::kGrep;
  q.pattern = std::move(pattern);
  q.range_lo = std::move(lo);
  q.range_hi = std::move(hi);
  return q;
}

Query Query::Aggregate(QueryKind kind, std::string lo, std::string hi) {
  Query q;
  q.kind = kind;
  q.range_lo = std::move(lo);
  q.range_hi = std::move(hi);
  return q;
}

namespace {
// Tokens are space-separated; "*" denotes the empty (unbounded) range end.
std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) {
    tokens.push_back(tok);
  }
  return tokens;
}

std::string Unstar(const std::string& s) {
  return s == "*" ? "" : s;
}

std::string Star(const std::string& s) {
  return s.empty() ? "*" : s;
}
}  // namespace

std::string Query::ToText() const {
  std::string out = QueryKindName(kind);
  auto field = [&out](const std::string& s) { out.append(" ").append(s); };
  switch (kind) {
    case QueryKind::kGet:
      field(key);
      break;
    case QueryKind::kScan:
      field(Star(range_lo));
      field(Star(range_hi));
      if (limit > 0) {
        field(std::to_string(limit));
      }
      break;
    case QueryKind::kGrep:
      field(pattern);
      field(Star(range_lo));
      field(Star(range_hi));
      break;
    default:
      field(Star(range_lo));
      field(Star(range_hi));
      break;
  }
  return out;
}

Result<Query> Query::Parse(const std::string& text) {
  std::vector<std::string> tokens = Tokenize(text);
  if (tokens.empty()) {
    return Error(ErrorCode::kParseError, "empty query");
  }
  const std::string& op = tokens[0];
  auto args = [&](size_t i) -> std::string {
    return i < tokens.size() ? tokens[i] : "";
  };

  if (op == "GET") {
    if (tokens.size() != 2) {
      return Error(ErrorCode::kParseError, "GET needs exactly one key");
    }
    return Query::Get(tokens[1]);
  }
  if (op == "SCAN") {
    if (tokens.size() < 3 || tokens.size() > 4) {
      return Error(ErrorCode::kParseError, "SCAN needs lo hi [limit]");
    }
    uint32_t limit = 0;
    if (tokens.size() == 4) {
      try {
        limit = static_cast<uint32_t>(std::stoul(tokens[3]));
      } catch (...) {
        return Error(ErrorCode::kParseError, "bad SCAN limit");
      }
    }
    return Query::Scan(Unstar(tokens[1]), Unstar(tokens[2]), limit);
  }
  if (op == "GREP") {
    if (tokens.size() < 2 || tokens.size() > 4) {
      return Error(ErrorCode::kParseError, "GREP needs pattern [lo hi]");
    }
    return Query::Grep(tokens[1], Unstar(args(2)), Unstar(args(3)));
  }
  QueryKind kind;
  if (op == "COUNT") {
    kind = QueryKind::kCount;
  } else if (op == "SUM") {
    kind = QueryKind::kSum;
  } else if (op == "MIN") {
    kind = QueryKind::kMin;
  } else if (op == "MAX") {
    kind = QueryKind::kMax;
  } else if (op == "AVG") {
    kind = QueryKind::kAvg;
  } else {
    return Error(ErrorCode::kParseError, "unknown operator: " + op);
  }
  if (tokens.size() > 3) {
    return Error(ErrorCode::kParseError, op + " takes [lo hi]");
  }
  return Query::Aggregate(kind, Unstar(args(1)), Unstar(args(2)));
}

}  // namespace sdr
