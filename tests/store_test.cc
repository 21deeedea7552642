// Tests for the document store, query language, executor, and op log.
#include <gtest/gtest.h>

#include "src/store/document_store.h"
#include "src/store/executor.h"
#include "src/store/oplog.h"
#include "src/store/query.h"
#include "src/util/rng.h"

namespace sdr {
namespace {

DocumentStore MakeCatalog() {
  DocumentStore s;
  s.Apply(WriteOp::Put("item/001", "red widget"));
  s.Apply(WriteOp::Put("item/002", "blue widget"));
  s.Apply(WriteOp::Put("item/003", "green gadget"));
  s.Apply(WriteOp::Put("price/001", "100"));
  s.Apply(WriteOp::Put("price/002", "250"));
  s.Apply(WriteOp::Put("price/003", "75"));
  return s;
}

TEST(DocumentStoreTest, PutGetDeleteAppend) {
  DocumentStore s;
  EXPECT_TRUE(s.Apply(WriteOp::Put("k", "v")));
  EXPECT_EQ(s.Get("k"), "v");
  EXPECT_TRUE(s.Apply(WriteOp::Append("k", "2")));
  EXPECT_EQ(s.Get("k"), "v2");
  EXPECT_TRUE(s.Apply(WriteOp::Delete("k")));
  EXPECT_FALSE(s.Get("k").has_value());
  EXPECT_FALSE(s.Apply(WriteOp::Delete("k")));  // delete of missing = no-op
}

TEST(DocumentStoreTest, AppendCreatesMissingKey) {
  DocumentStore s;
  s.Apply(WriteOp::Append("log", "a"));
  EXPECT_EQ(s.Get("log"), "a");
}

TEST(DocumentStoreTest, FingerprintTracksContent) {
  DocumentStore a = MakeCatalog();
  DocumentStore b = MakeCatalog();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.Apply(WriteOp::Put("item/004", "new"));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(DocumentStoreTest, FingerprintInsensitiveToInsertionOrder) {
  DocumentStore a, b;
  a.Apply(WriteOp::Put("x", "1"));
  a.Apply(WriteOp::Put("y", "2"));
  b.Apply(WriteOp::Put("y", "2"));
  b.Apply(WriteOp::Put("x", "1"));
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(WriteOpTest, BatchSerdeRoundTrip) {
  WriteBatch batch = {WriteOp::Put("a", "1"), WriteOp::Delete("b"),
                      WriteOp::Append("c", "x")};
  Writer w;
  EncodeBatch(w, batch);
  Reader r(w.bytes());
  WriteBatch decoded = DecodeBatch(r);
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(decoded, batch);
}

TEST(QueryTest, TextRoundTrip) {
  for (const char* text :
       {"GET item/001", "SCAN item/ item0 10", "SCAN * *",
        "GREP widget item/ item0", "GREP gadget * *", "COUNT price/ price0",
        "SUM * *", "MIN price/ *", "MAX * price0", "AVG price/ price0"}) {
    auto q = Query::Parse(text);
    ASSERT_TRUE(q.ok()) << text;
    auto q2 = Query::Parse(q->ToText());
    ASSERT_TRUE(q2.ok()) << q->ToText();
    EXPECT_EQ(*q, *q2) << text;
  }
}

TEST(QueryTest, BinaryRoundTrip) {
  Query q = Query::Grep("wid.*", "item/", "item0");
  auto decoded = Query::Decode(q.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, q);
}

TEST(QueryTest, ParseRejectsMalformed) {
  for (const char* text :
       {"", "GET", "GET a b", "SCAN a", "SCAN a b c d", "SCAN a b xyz",
        "FOO bar", "COUNT a b c"}) {
    EXPECT_FALSE(Query::Parse(text).ok()) << text;
  }
}

TEST(QueryTest, DecodeRejectsCorrupt) {
  Bytes junk = {0xff, 0x01};
  EXPECT_FALSE(Query::Decode(junk).ok());
}

TEST(ExecutorTest, GetFoundAndMissing) {
  DocumentStore s = MakeCatalog();
  QueryExecutor exec;
  auto hit = exec.Execute(s, Query::Get("item/002"));
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->result.rows.size(), 1u);
  EXPECT_EQ(hit->result.rows[0].second, "blue widget");
  EXPECT_EQ(hit->cost, 1u);

  auto miss = exec.Execute(s, Query::Get("item/999"));
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->result.rows.empty());
}

TEST(ExecutorTest, ScanRangeAndLimit) {
  DocumentStore s = MakeCatalog();
  QueryExecutor exec;
  auto all = exec.Execute(s, Query::Scan("item/", "item0"));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->result.rows.size(), 3u);
  EXPECT_EQ(all->result.rows[0].first, "item/001");

  auto limited = exec.Execute(s, Query::Scan("item/", "item0", 2));
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->result.rows.size(), 2u);

  auto unbounded = exec.Execute(s, Query::Scan("", ""));
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ(unbounded->result.rows.size(), 6u);
}

TEST(ExecutorTest, InvertedRangeIsEmpty) {
  // lo past hi: every range query sees no rows rather than walking off the
  // end of the store.
  DocumentStore s = MakeCatalog();
  QueryExecutor exec;
  for (const Query& q :
       {Query::Scan("price/", "item/"), Query::Grep("widget", "z", "a"),
        Query::Aggregate(QueryKind::kCount, "price/002", "price/001")}) {
    auto out = exec.Execute(s, q);
    ASSERT_TRUE(out.ok()) << q.ToText();
    EXPECT_TRUE(out->result.rows.empty()) << q.ToText();
    EXPECT_EQ(out->result.scalar, 0) << q.ToText();
  }
}

TEST(ExecutorTest, GrepMatchesValues) {
  DocumentStore s = MakeCatalog();
  QueryExecutor exec;
  auto widgets = exec.Execute(s, Query::Grep("widget"));
  ASSERT_TRUE(widgets.ok());
  EXPECT_EQ(widgets->result.rows.size(), 2u);

  auto anchored = exec.Execute(s, Query::Grep("^red"));
  ASSERT_TRUE(anchored.ok());
  EXPECT_EQ(anchored->result.rows.size(), 1u);
}

TEST(ExecutorTest, GrepBadRegexFails) {
  DocumentStore s = MakeCatalog();
  QueryExecutor exec;
  EXPECT_FALSE(exec.Execute(s, Query::Grep("(unclosed")).ok());
}

TEST(ExecutorTest, RegexCacheHits) {
  DocumentStore s = MakeCatalog();
  QueryExecutor exec(/*cache_regex=*/true);
  // A pattern with a metacharacter goes through the regex engine (and its
  // cache); literal patterns take the substring fast path and never touch it.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(exec.Execute(s, Query::Grep("widge.")).ok());
  }
  EXPECT_EQ(exec.regex_cache_hits(), 4u);
}

TEST(ExecutorTest, LiteralGrepSkipsRegexCacheAndMatchesRegexPath) {
  DocumentStore s = MakeCatalog();
  QueryExecutor exec(/*cache_regex=*/true);
  auto lit = exec.Execute(s, Query::Grep("widget"));
  ASSERT_TRUE(lit.ok());
  EXPECT_EQ(exec.regex_cache_hits(), 0u);
  // "(widget)" is semantically the same search but is not literal, so it
  // exercises the regex engine; both paths must return identical rows.
  auto rex = exec.Execute(s, Query::Grep("(widget)"));
  ASSERT_TRUE(rex.ok());
  EXPECT_EQ(lit->result.rows, rex->result.rows);
  EXPECT_EQ(lit->cost, rex->cost);
}

TEST(ExecutorTest, Aggregates) {
  DocumentStore s = MakeCatalog();
  QueryExecutor exec;
  auto count = exec.Execute(s, Query::Aggregate(QueryKind::kCount, "price/", "price0"));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->result.scalar, 3);

  auto sum = exec.Execute(s, Query::Aggregate(QueryKind::kSum, "price/", "price0"));
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->result.scalar, 425);

  auto mn = exec.Execute(s, Query::Aggregate(QueryKind::kMin, "price/", "price0"));
  ASSERT_TRUE(mn.ok());
  EXPECT_EQ(mn->result.scalar, 75);

  auto mx = exec.Execute(s, Query::Aggregate(QueryKind::kMax, "price/", "price0"));
  ASSERT_TRUE(mx.ok());
  EXPECT_EQ(mx->result.scalar, 250);

  auto avg = exec.Execute(s, Query::Aggregate(QueryKind::kAvg, "price/", "price0"));
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(avg->result.scalar, 1000 * 425 / 3);
}

TEST(ExecutorTest, AggregatesSkipNonNumeric) {
  DocumentStore s = MakeCatalog();  // item/* values are non-numeric
  QueryExecutor exec;
  auto sum = exec.Execute(s, Query::Aggregate(QueryKind::kSum));
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->result.scalar, 425);  // only the three prices

  auto count = exec.Execute(s, Query::Aggregate(QueryKind::kCount));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->result.scalar, 6);  // COUNT counts all rows
}

TEST(ExecutorTest, EmptyAggregateFlagged) {
  DocumentStore s;
  QueryExecutor exec;
  auto mn = exec.Execute(s, Query::Aggregate(QueryKind::kMin));
  ASSERT_TRUE(mn.ok());
  EXPECT_TRUE(mn->result.empty_aggregate);
}

TEST(ExecutorTest, CostModelShape) {
  DocumentStore s;
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%03d", i);
    s.Apply(WriteOp::Put(key, std::string(128, 'x')));
  }
  QueryExecutor exec;
  auto get = exec.Execute(s, Query::Get("k050"));
  auto scan = exec.Execute(s, Query::Scan("", ""));
  auto grep = exec.Execute(s, Query::Grep("yyy"));
  ASSERT_TRUE(get.ok());
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(grep.ok());
  EXPECT_EQ(get->cost, 1u);
  EXPECT_EQ(scan->cost, 100u);
  // GREP charges for value size: 1 + 128/64 = 3 per row.
  EXPECT_EQ(grep->cost, 300u);
}

TEST(ExecutorTest, ResultEncodingIsCanonical) {
  DocumentStore a = MakeCatalog();
  DocumentStore b = MakeCatalog();
  QueryExecutor e1, e2;
  Query q = Query::Scan("", "");
  auto r1 = e1.Execute(a, q);
  auto r2 = e2.Execute(b, q);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->result.Encode(), r2->result.Encode());
  EXPECT_EQ(r1->result.Sha1Digest(), r2->result.Sha1Digest());
}

TEST(ExecutorTest, ResultSerdeRoundTrip) {
  DocumentStore s = MakeCatalog();
  QueryExecutor exec;
  auto r = exec.Execute(s, Query::Scan("", ""));
  ASSERT_TRUE(r.ok());
  auto decoded = QueryResult::Decode(r->result.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, r->result);
}

TEST(OpLogTest, HeadTracksAppendedBatches) {
  OpLog log;
  log.Append(1, {WriteOp::Put("a", "1")});
  log.Append(2, {WriteOp::Put("b", "2")});
  EXPECT_EQ(log.head_version(), 2u);
  EXPECT_EQ(log.head().Get("a"), "1");
  EXPECT_EQ(log.head().Get("b"), "2");
}

TEST(OpLogTest, MaterializeHistoricalVersions) {
  OpLog log(/*snapshot_interval=*/4);
  for (uint64_t v = 1; v <= 10; ++v) {
    log.Append(v, {WriteOp::Put("k", std::to_string(v))});
  }
  for (uint64_t v = 1; v <= 10; ++v) {
    auto s = log.MaterializeAt(v);
    ASSERT_TRUE(s.ok()) << v;
    EXPECT_EQ(s->Get("k"), std::to_string(v));
  }
  auto v0 = log.MaterializeAt(0);
  ASSERT_TRUE(v0.ok());
  EXPECT_EQ(v0->size(), 0u);
}

TEST(OpLogTest, MaterializeBeyondHeadFails) {
  OpLog log;
  EXPECT_FALSE(log.MaterializeAt(1).ok());
}

TEST(OpLogTest, BaseSnapshotIsVersionZero) {
  DocumentStore base;
  base.Apply(WriteOp::Put("seed", "content"));
  OpLog log;
  log.SetBaseSnapshot(base);
  auto v0 = log.MaterializeAt(0);
  ASSERT_TRUE(v0.ok());
  EXPECT_EQ(v0->Get("seed"), "content");
  log.Append(1, {WriteOp::Delete("seed")});
  auto v1 = log.MaterializeAt(1);
  ASSERT_TRUE(v1.ok());
  EXPECT_FALSE(v1->Get("seed").has_value());
}

TEST(OpLogTest, PruneKeepsRequestedVersionReachable) {
  OpLog log(/*snapshot_interval=*/4);
  for (uint64_t v = 1; v <= 12; ++v) {
    log.Append(v, {WriteOp::Put("k", std::to_string(v))});
  }
  log.PruneBelow(8);
  auto s8 = log.MaterializeAt(8);
  ASSERT_TRUE(s8.ok());
  EXPECT_EQ(s8->Get("k"), "8");
  EXPECT_FALSE(log.MaterializeAt(3).ok());
}

TEST(OpLogTest, PruneKeepsEveryVersionAboveFloorReachable) {
  // Pruning at a version between snapshots must keep the batches needed to
  // replay from the retained snapshot: an auditor that finalizes version 3
  // (snapshots every 16) still audits late pledges at versions 4..head.
  OpLog log(/*snapshot_interval=*/16);
  for (uint64_t v = 1; v <= 6; ++v) {
    log.Append(v, {WriteOp::Put("k", std::to_string(v))});
  }
  log.PruneBelow(3);
  for (uint64_t v = 3; v <= 6; ++v) {
    auto s = log.MaterializeAt(v);
    ASSERT_TRUE(s.ok()) << v;
    EXPECT_EQ(s->Get("k"), std::to_string(v));
  }
}

TEST(OpLogTest, SnapshotIntervalBoundsReplay) {
  OpLog log(/*snapshot_interval=*/2);
  for (uint64_t v = 1; v <= 9; ++v) {
    log.Append(v, {WriteOp::Put("k" + std::to_string(v), "v")});
  }
  // Snapshots at 0, 2, 4, 6, 8.
  EXPECT_EQ(log.retained_snapshots(), 5u);
}

// QueryAffectedBy is the proof the auditor's cross-version memo rides on:
// a false "unaffected" would let the memo certify a stale result, and a
// lie would pass the audit. Oracle: when it says "unaffected", executing
// the query before and after the batch must hash equal.
TEST(QueryAffectedByTest, UnaffectedImpliesEqualResultHashes) {
  Rng rng(2024);
  // A small keyspace with two prefixes, so ranges, limits and batches
  // overlap often; keys and bounds share the alphabet.
  auto key = [&rng] {
    return std::string(rng.NextBool(0.5) ? "a/" : "b/") +
           std::to_string(rng.NextBounded(12));
  };
  auto bound = [&rng, &key] {
    return rng.NextBool(0.2) ? std::string() : key();
  };
  auto value = [&rng] {
    return rng.NextBool(0.5) ? std::to_string(rng.NextBounded(100))
                             : "word" + std::to_string(rng.NextBounded(5));
  };
  const QueryKind kinds[] = {QueryKind::kGet,   QueryKind::kScan,
                             QueryKind::kGrep,  QueryKind::kCount,
                             QueryKind::kSum,   QueryKind::kMin,
                             QueryKind::kMax,   QueryKind::kAvg};
  QueryExecutor exec;
  int unaffected = 0;
  int affected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    DocumentStore before;
    int n = static_cast<int>(rng.NextBounded(16));
    for (int i = 0; i < n; ++i) {
      before.Apply(WriteOp::Put(key(), value()));
    }
    Query q;
    QueryKind kind = kinds[rng.NextBounded(8)];
    switch (kind) {
      case QueryKind::kGet:
        q = Query::Get(key());
        break;
      case QueryKind::kScan:
        q = Query::Scan(bound(), bound(),
                        static_cast<uint32_t>(rng.NextBounded(4)));
        break;
      case QueryKind::kGrep:
        q = Query::Grep(rng.NextBool(0.5) ? "word[0-2]" : "^[0-9]+$",
                        bound(), bound());
        break;
      default:
        q = Query::Aggregate(kind, bound(), bound());
        break;
    }
    WriteBatch batch;
    int ops = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < ops; ++i) {
      switch (rng.NextBounded(3)) {
        case 0:
          batch.push_back(WriteOp::Put(key(), value()));
          break;
        case 1:
          batch.push_back(WriteOp::Delete(key()));
          break;
        default:
          batch.push_back(WriteOp::Append(key(), value()));
          break;
      }
    }
    DocumentStore after = before;
    after.ApplyBatch(batch);
    if (QueryAffectedBy(q, batch)) {
      ++affected;
      continue;
    }
    ++unaffected;
    auto old_result = exec.Execute(before, q);
    auto new_result = exec.Execute(after, q);
    ASSERT_TRUE(old_result.ok());
    ASSERT_TRUE(new_result.ok());
    ASSERT_EQ(old_result->result.Sha1Digest(),
              new_result->result.Sha1Digest())
        << "trial " << trial << ": " << q.ToText();
  }
  // Both verdicts must be common, or the oracle proves little.
  EXPECT_GT(unaffected, 500);
  EXPECT_GT(affected, 500);
}

}  // namespace
}  // namespace sdr
