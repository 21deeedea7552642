#include "src/core/shard.h"

#include <algorithm>

namespace sdr {

uint32_t ShardMap::ShardForKey(std::string_view key) const {
  // Number of boundaries <= key == index of the owning shard.
  auto it = std::upper_bound(boundaries.begin(), boundaries.end(), key);
  return static_cast<uint32_t>(it - boundaries.begin());
}

std::pair<uint32_t, uint32_t> ShardMap::ShardSpan(std::string_view lo,
                                                  std::string_view hi) const {
  uint32_t first = lo.empty() ? 0 : ShardForKey(lo);
  uint32_t last = num_shards() - 1;
  if (!hi.empty()) {
    // hi is exclusive: the span ends in the shard holding keys just below
    // it, i.e. after every boundary strictly less than hi.
    auto it = std::lower_bound(boundaries.begin(), boundaries.end(), hi);
    last = static_cast<uint32_t>(it - boundaries.begin());
  }
  if (last < first) {
    last = first;  // empty range; keep the plan well-formed
  }
  return {first, last};
}

std::string ShardMap::ShardLo(uint32_t shard) const {
  return shard == 0 ? std::string() : boundaries[shard - 1];
}

std::string ShardMap::ShardHi(uint32_t shard) const {
  return shard + 1 >= num_shards() ? std::string() : boundaries[shard];
}

ShardMap BuildShardMap(std::vector<std::string> keys, uint32_t num_shards) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  ShardMap map;
  if (num_shards <= 1 || keys.empty()) {
    return map;
  }
  size_t n = keys.size();
  for (uint32_t i = 1; i < num_shards; ++i) {
    const std::string& candidate = keys[i * n / num_shards];
    // Collapsing duplicate cut points keeps boundaries strictly ascending
    // when there are fewer distinct keys than requested shards.
    if (map.boundaries.empty() || candidate > map.boundaries.back()) {
      map.boundaries.push_back(candidate);
    }
  }
  return map;
}

ShardPlacement MakeShardPlacement(const Signer& content_signer,
                                  uint64_t generation, ShardMap map,
                                  std::vector<std::vector<NodeId>> masters) {
  ShardPlacement p;
  p.generation = generation;
  p.map = std::move(map);
  p.shard_masters = std::move(masters);
  p.signature = content_signer.Sign(p.SignedBody());
  return p;
}

bool VerifyShardPlacement(SignatureScheme scheme,
                          const Bytes& content_public_key,
                          const ShardPlacement& placement) {
  if (placement.shard_masters.size() != placement.map.num_shards()) {
    return false;
  }
  return VerifySignature(scheme, content_public_key, placement.SignedBody(),
                         placement.signature);
}

std::vector<ShardSubquery> PlanShardQuery(const ShardMap& map,
                                          const Query& q) {
  std::vector<ShardSubquery> plan;
  if (q.kind == QueryKind::kGet) {
    plan.push_back({map.ShardForKey(q.key), q});
    return plan;
  }
  auto [first, last] = map.ShardSpan(q.range_lo, q.range_hi);
  if (first == last) {
    plan.push_back({first, q});
    return plan;
  }
  for (uint32_t s = first; s <= last; ++s) {
    Query sub = q;
    if (s != first) {
      sub.range_lo = map.ShardLo(s);
    }
    if (s != last) {
      sub.range_hi = map.ShardHi(s);
    }
    if (q.kind == QueryKind::kAvg) {
      // AVG cannot be merged from per-shard AVGs (a quotient of sums is
      // not a sum of quotients), so each shard contributes a SUM and a
      // COUNT leg instead; see the header for the numeric-rows caveat.
      Query sum = sub;
      sum.kind = QueryKind::kSum;
      plan.push_back({s, std::move(sum)});
      Query count = sub;
      count.kind = QueryKind::kCount;
      plan.push_back({s, std::move(count)});
    } else {
      plan.push_back({s, std::move(sub)});
    }
  }
  return plan;
}

QueryResult MergeShardResults(const Query& original,
                              const std::vector<ShardSubquery>& plan,
                              const std::vector<QueryResult>& results) {
  if (plan.size() == 1) {
    return results.empty() ? QueryResult{} : results[0];
  }
  QueryResult merged;
  switch (original.kind) {
    case QueryKind::kGet:
    case QueryKind::kScan:
    case QueryKind::kGrep: {
      merged.type = QueryResult::Type::kRows;
      for (const QueryResult& r : results) {
        merged.rows.insert(merged.rows.end(), r.rows.begin(), r.rows.end());
      }
      if (original.limit > 0 && merged.rows.size() > original.limit) {
        merged.rows.resize(original.limit);
      }
      return merged;
    }
    case QueryKind::kCount: {
      merged.type = QueryResult::Type::kScalar;
      for (const QueryResult& r : results) {
        merged.scalar += r.scalar;
      }
      return merged;
    }
    case QueryKind::kSum:
    case QueryKind::kMin:
    case QueryKind::kMax: {
      merged.type = QueryResult::Type::kScalar;
      merged.empty_aggregate = true;
      for (const QueryResult& r : results) {
        if (r.empty_aggregate) {
          continue;
        }
        if (merged.empty_aggregate) {
          merged.scalar = r.scalar;
          merged.empty_aggregate = false;
        } else if (original.kind == QueryKind::kSum) {
          merged.scalar += r.scalar;
        } else if (original.kind == QueryKind::kMin) {
          merged.scalar = std::min(merged.scalar, r.scalar);
        } else {
          merged.scalar = std::max(merged.scalar, r.scalar);
        }
      }
      return merged;
    }
    case QueryKind::kAvg: {
      // Recombine the SUM/COUNT leg pairs the planner emitted. A shard
      // whose SUM leg is empty contributed no numeric rows, so its COUNT
      // leg is excluded from the divisor.
      int64_t sum = 0;
      int64_t count = 0;
      for (size_t i = 0; i + 1 < plan.size(); i += 2) {
        if (results[i].empty_aggregate) {
          continue;
        }
        sum += results[i].scalar;
        count += results[i + 1].scalar;
      }
      merged.type = QueryResult::Type::kScalar;
      if (count == 0) {
        merged.empty_aggregate = true;
      } else {
        merged.scalar = 1000 * sum / count;  // the executor's fixed point
      }
      return merged;
    }
  }
  return merged;
}

}  // namespace sdr
