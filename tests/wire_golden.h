// Pinned wire format: one fully populated instance of every wire type (and
// the edge shapes that change an encoding's length), each with its
// encoding and, for the signed types, its signed body as hex. The golden
// test compares these byte for byte; the decoder mutation suite seeds its
// corpus from them. A change here is a change of the wire format.
#ifndef SDR_TESTS_WIRE_GOLDEN_H_
#define SDR_TESTS_WIRE_GOLDEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/baselines/bft_order.h"
#include "bench/baselines/merkle_tree.h"
#include "bench/baselines/state_signing.h"
#include "src/broadcast/total_order.h"
#include "src/core/messages.h"
#include "src/trace/export.h"
#include "src/util/bytes.h"
#include "src/util/serde.h"

namespace sdr::golden {

// n bytes counting up from `first`.
inline Bytes Seq(uint8_t first, size_t n) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>(first + i);
  }
  return b;
}

inline Certificate SampleCert(uint8_t salt) {
  Certificate c;
  c.subject = 0x100u + salt;
  c.role = Role::kSlave;
  c.subject_public_key = Seq(0x10 + salt, 3);
  c.signature = Seq(0x20 + salt, 4);
  return c;
}

inline AssignedSlave SampleAssigned(uint8_t salt) {
  return AssignedSlave{SampleCert(salt), 0x900u + salt};
}

inline VersionToken SampleToken() {
  VersionToken t;
  t.content_version = 0x0102030405060708ull;
  t.timestamp = 123456789;
  t.master = 7;
  t.signature = Seq(0x30, 4);
  return t;
}

inline Query SampleQuery() {
  Query q;
  q.kind = QueryKind::kGrep;
  q.key = "k1";
  q.range_lo = "a";
  q.range_hi = "z";
  q.pattern = "p.*";
  q.limit = 9;
  return q;
}

inline Pledge SamplePledge() {
  Pledge p;
  p.query = SampleQuery();
  p.result_sha1 = Seq(0x40, 5);
  p.token = SampleToken();
  p.slave = 11;
  p.signature = Seq(0x50, 4);
  return p;
}

inline BatchCommit SampleCommit() {
  BatchCommit c;
  c.master = 7;
  c.first_version = 5;
  c.last_version = 8;
  c.batches_sha1 = Seq(0x60, 5);
  c.timestamp = 987654321;
  c.signature = Seq(0x70, 4);
  return c;
}

inline VersionVector SampleVv(uint64_t chain_length) {
  VersionVector v;
  v.slave = 11;
  v.content_version = 8;
  v.chain_length = chain_length;
  v.head_sha1 = Seq(0x80, 5);
  v.signature = Seq(0x90, 4);
  return v;
}

inline AttestedVv SampleAvv(uint64_t chain_length) {
  return AttestedVv{SampleVv(chain_length), SampleToken(), SampleCert(3)};
}

inline EvidenceChain SampleChain() {
  return EvidenceChain{SampleAvv(4), SampleAvv(5),
                       {SampleCert(1), SampleCert(2)}};
}

inline ShardMap SampleShardMap() { return ShardMap{{"g", "p"}}; }

inline ShardPlacement SamplePlacement() {
  ShardPlacement p;
  p.generation = 3;
  p.map = SampleShardMap();
  p.shard_masters = {{1, 2}, {3}, {}};
  p.signature = Seq(0xa0, 4);
  return p;
}

inline WriteBatch SampleBatch() {
  return {WriteOp::Put("k", "v"), WriteOp::Delete("d"),
          WriteOp::Append("a", "xy")};
}

inline QueryResult SampleResult() {
  QueryResult r;
  r.type = QueryResult::Type::kRows;
  r.rows = {{"k1", "v1"}, {"k2", ""}};
  r.scalar = -5;
  r.empty_aggregate = true;
  return r;
}

inline TobWrite SampleTobWrite(uint8_t salt) {
  return TobWrite{1u + salt, 20u + salt, 30u + salt, SampleBatch()};
}

inline SignedRoot SampleRoot() {
  return SignedRoot{Seq(0x10, 3), 5, 1000, Seq(0x20, 4)};
}

// Names "" and "read", two nodes, one event, one histogram of three
// recordings in two buckets, nine events dropped.
inline TraceFile SampleTraceFile() {
  TraceFile f;
  f.names = {"", "read"};
  f.nodes = {{1, TraceRole::kClient, "c1"}, {4, TraceRole::kSlave, ""}};
  TraceEvent ev;
  ev.time = 1500;
  ev.trace_id = 0x100000007ull;
  ev.value = -2;
  ev.node = 1;
  ev.name = 1;
  ev.type = TraceEventType::kSpanEnd;
  ev.role = TraceRole::kClient;
  f.events = {ev};
  f.histograms = {{1, TraceRole::kClient, 1, 3, 3, 40, 46.0, {{3, 2}, {40, 1}}}};
  f.dropped = 9;
  return f;
}

inline const Bytes& SampleClientNonce() {
  static const Bytes kNonce = Seq(0xc0, 4);
  return kNonce;
}

// The encoding through the public API: Encode() where the type has one,
// EncodeTo() for the types only ever nested in another.
template <typename T>
Bytes EncodingOf(const T& v) {
  if constexpr (requires { v.Encode(); }) {
    return v.Encode();
  } else {
    Writer w;
    v.EncodeTo(w);
    return w.Take();
  }
}

// The signed body, or empty for an unsigned type. ClientHelloReply signs
// over the client's nonce as well.
template <typename T>
Bytes SignedBodyOf(const T& v) {
  if constexpr (requires { v.SignedBody(); }) {
    return v.SignedBody();
  } else if constexpr (requires { v.SignedBody(Bytes{}); }) {
    return v.SignedBody(SampleClientNonce());
  } else {
    return {};
  }
}

template <typename T>
struct Golden {
  const char* name;
  T value;
  const char* encoding;     // hex
  const char* signed_body;  // hex; "" for unsigned types
};

// Explicitly specialized below, once per wire type.
template <typename T>
std::vector<Golden<T>> GoldensOf();

using WireTypes = ::testing::Types<
    Certificate, AssignedSlave, VersionToken, Query, Pledge, BatchCommit,
    VersionVector, AttestedVv, EvidenceChain, EvidenceBundle, ShardMap,
    ShardPlacement, WriteOp, QueryResult, DirectoryLookup,
    DirectoryLookupReply, ClientHello, ClientHelloReply, ReadRequest,
    ReadReply, WriteRequest, WriteReply, DoubleCheckRequest,
    DoubleCheckReply, Accusation, Reassignment, KeepAlive, SlaveAck,
    AuditSubmit, BadReadNotice, VvExchange, ForkEvidence, PlacementQuery,
    PlacementReply, StateUpdateBatch, TobWrite, TobWriteBundle, TobGossip,
    TotalOrderBroadcast::Submit, TotalOrderBroadcast::Ordered,
    TotalOrderBroadcast::Nack, TotalOrderBroadcast::Heartbeat,
    TotalOrderBroadcast::NewEpoch, TotalOrderBroadcast::SyncInfo,
    BftOrderBroadcast::Request, BftOrderBroadcast::PrePrepare,
    BftOrderBroadcast::Vote, MerkleTree::Proof, SignedRoot, BaselineRead,
    BaselineReadReply, SsPointRead, SsPointReadReply, SsStateUpdate,
    TraceFile>;

// ---- Nested types ----------------------------------------------------------

template <>
inline std::vector<Golden<Certificate>> GoldensOf() {
  return {{"Certificate", SampleCert(1),
           "0101000001030000001112130400000021222324",
           "0b0000007364722d636572742d7631010100000103000000111213"}};
}

template <>
inline std::vector<Golden<AssignedSlave>> GoldensOf() {
  return {{"AssignedSlave", SampleAssigned(1),
           "010100000103000000111213040000002122232401090000",
           ""}};
}

template <>
inline std::vector<Golden<VersionToken>> GoldensOf() {
  return {{"VersionToken", SampleToken(),
           "080706050403020115cd5b0700000000070000000400000030313233",
           "0b0000007364722d76746f6b2d7631080706050403020115cd5b0700"
           "00000007000000"}};
}

template <>
inline std::vector<Golden<Query>> GoldensOf() {
  return {{"Query", SampleQuery(),
           "02020000006b310100000061010000007a03000000702e2a09000000",
           ""}};
}

template <>
inline std::vector<Golden<Pledge>> GoldensOf() {
  return {{"Pledge", SamplePledge(),
           "02020000006b310100000061010000007a03000000702e2a09000000"
           "050000004041424344080706050403020115cd5b0700000000070000"
           "0004000000303132330b0000000400000050515253",
           "0d0000007364722d706c656467652d763102020000006b3101000000"
           "61010000007a03000000702e2a090000000500000040414243440807"
           "06050403020115cd5b07000000000700000004000000303132330b00"
           "0000"}};
}

template <>
inline std::vector<Golden<BatchCommit>> GoldensOf() {
  return {{"BatchCommit", SampleCommit(),
           "07000000050000000000000008000000000000000500000060616263"
           "64b168de3a000000000400000070717273",
           "0b0000007364722d62636f6d2d763107000000050000000000000008"
           "00000000000000050000006061626364b168de3a00000000"}};
}

template <>
inline std::vector<Golden<VersionVector>> GoldensOf() {
  return {{"VersionVector", SampleVv(4),
           "0b000000080000000000000004000000000000000500000080818283"
           "840400000090919293",
           "090000007364722d76762d76310b0000000800000000000000040000"
           "0000000000050000008081828384"}};
}

template <>
inline std::vector<Golden<AttestedVv>> GoldensOf() {
  return {{"AttestedVv", SampleAvv(4),
           "0b000000080000000000000004000000000000000500000080818283"
           "840400000090919293080706050403020115cd5b0700000000070000"
           "00040000003031323303010000010300000013141504000000232425"
           "26",
           ""}};
}

template <>
inline std::vector<Golden<EvidenceChain>> GoldensOf() {
  return {{"EvidenceChain", SampleChain(),
           "0b000000080000000000000004000000000000000500000080818283"
           "840400000090919293080706050403020115cd5b0700000000070000"
           "00040000003031323303010000010300000013141504000000232425"
           "260b0000000800000000000000050000000000000005000000808182"
           "83840400000090919293080706050403020115cd5b07000000000700"
           "00000400000030313233030100000103000000131415040000002324"
           "25260200000001010000010300000011121304000000212223240201"
           "000001030000001213140400000022232425",
           ""}};
}

template <>
inline std::vector<Golden<EvidenceBundle>> GoldensOf() {
  return {{"EvidenceBundle",
           EvidenceBundle{SignatureScheme::kHmacSha256, Seq(0xb0, 3),
                          {SampleChain()}},
           "0103000000b0b1b2010000000b000000080000000000000004000000"
           "00000000050000008081828384040000009091929308070605040302"
           "0115cd5b070000000007000000040000003031323303010000010300"
           "000013141504000000232425260b0000000800000000000000050000"
           "00000000000500000080818283840400000090919293080706050403"
           "020115cd5b0700000000070000000400000030313233030100000103"
           "00000013141504000000232425260200000001010000010300000011"
           "12130400000021222324020100000103000000121314040000002223"
           "2425",
           ""}};
}

template <>
inline std::vector<Golden<ShardMap>> GoldensOf() {
  return {{"ShardMap", SampleShardMap(),
           "0200000001000000670100000070",
           ""}};
}

template <>
inline std::vector<Golden<ShardPlacement>> GoldensOf() {
  return {{"ShardPlacement", SamplePlacement(),
           "03000000000000000200000001000000670100000070030000000200"
           "0000010000000200000001000000030000000000000004000000a0a1"
           "a2a3",
           "0c0000007364722d706c6163652d7631030000000000000002000000"
           "01000000670100000070030000000200000001000000020000000100"
           "00000300000000000000"}};
}

template <>
inline std::vector<Golden<WriteOp>> GoldensOf() {
  return {{"WriteOp", WriteOp::Append("key", "val"),
           "02030000006b65790300000076616c",
           ""}};
}

template <>
inline std::vector<Golden<QueryResult>> GoldensOf() {
  return {{"QueryResult", SampleResult(),
           "0102000000020000006b31020000007631020000006b3200000000fb"
           "ffffffffffffff01",
           ""}};
}

// ---- Messages --------------------------------------------------------------

template <>
inline std::vector<Golden<DirectoryLookup>> GoldensOf() {
  return {{"DirectoryLookup", DirectoryLookup{Seq(0xd0, 3)},
           "03000000d0d1d2",
           ""}};
}

template <>
inline std::vector<Golden<DirectoryLookupReply>> GoldensOf() {
  return {{"DirectoryLookupReply",
           DirectoryLookupReply{{SampleCert(1), SampleCert(2)}},
           "02000000010100000103000000111213040000002122232402010000"
           "01030000001213140400000022232425",
           ""}};
}

template <>
inline std::vector<Golden<ClientHello>> GoldensOf() {
  return {{"ClientHello", ClientHello{SampleClientNonce()},
           "04000000c0c1c2c3",
           ""}};
}

template <>
inline std::vector<Golden<ClientHelloReply>> GoldensOf() {
  return {{"ClientHelloReply",
           ClientHelloReply{Seq(0xc8, 4), 6,
                            {SampleAssigned(1), SampleAssigned(2)},
                            Seq(0xe0, 4)},
           "04000000c8c9cacb0600000000000000020000000101000001030000"
           "00111213040000002122232401090000020100000103000000121314"
           "04000000222324250209000004000000e0e1e2e3",
           "0c0000007364722d68656c6c6f2d763204000000c0c1c2c304000000"
           "c8c9cacb060000000000000002000000010100000103000000111213"
           "04000000212223240109000002010000010300000012131404000000"
           "2223242502090000"}};
}

template <>
inline std::vector<Golden<ReadRequest>> GoldensOf() {
  return {{"ReadRequest", ReadRequest{41, 42, SampleQuery()},
           "29000000000000002a0000000000000002020000006b310100000061"
           "010000007a03000000702e2a09000000",
           ""}};
}

template <>
inline std::vector<Golden<ReadReply>> GoldensOf() {
  ReadReply without_vv;
  without_vv.request_id = 41;
  without_vv.trace_id = 42;
  without_vv.ok = true;
  without_vv.result = SampleResult().Encode();
  without_vv.pledge = SamplePledge();
  ReadReply with_vv = without_vv;
  with_vv.vv = SampleVv(4);
  return {{"ReadReply/no_vv", without_vv,
           "29000000000000002a00000000000000012400000001020000000200"
           "00006b31020000007631020000006b3200000000fbffffffffffffff"
           "0102020000006b310100000061010000007a03000000702e2a090000"
           "00050000004041424344080706050403020115cd5b07000000000700"
           "000004000000303132330b0000000400000050515253",
           ""},
          {"ReadReply/vv", with_vv,
           "29000000000000002a00000000000000012400000001020000000200"
           "00006b31020000007631020000006b3200000000fbffffffffffffff"
           "0102020000006b310100000061010000007a03000000702e2a090000"
           "00050000004041424344080706050403020115cd5b07000000000700"
           "000004000000303132330b00000004000000505152530b0000000800"
           "00000000000004000000000000000500000080818283840400000090"
           "919293",
           ""}};
}

template <>
inline std::vector<Golden<WriteRequest>> GoldensOf() {
  return {{"WriteRequest", WriteRequest{43, SampleBatch()},
           "2b000000000000000300000000010000006b01000000760101000000"
           "6400000000020100000061020000007879",
           ""}};
}

template <>
inline std::vector<Golden<WriteReply>> GoldensOf() {
  return {{"WriteReply", WriteReply{43, true, 8, 3},
           "2b0000000000000001080000000000000003",
           ""}};
}

template <>
inline std::vector<Golden<DoubleCheckRequest>> GoldensOf() {
  return {{"DoubleCheckRequest", DoubleCheckRequest{44, 42, SamplePledge()},
           "2c000000000000002a0000000000000002020000006b310100000061"
           "010000007a03000000702e2a09000000050000004041424344080706"
           "050403020115cd5b07000000000700000004000000303132330b0000"
           "000400000050515253",
           ""}};
}

template <>
inline std::vector<Golden<DoubleCheckReply>> GoldensOf() {
  return {{"DoubleCheckReply",
           DoubleCheckReply{44, 42, true, true, SampleResult().Encode()},
           "2c000000000000002a00000000000000010124000000010200000002"
           "0000006b31020000007631020000006b3200000000fbffffffffffff"
           "ff01",
           ""}};
}

template <>
inline std::vector<Golden<Accusation>> GoldensOf() {
  return {{"Accusation", Accusation{42, SamplePledge()},
           "2a0000000000000002020000006b310100000061010000007a030000"
           "00702e2a09000000050000004041424344080706050403020115cd5b"
           "07000000000700000004000000303132330b00000004000000505152"
           "53",
           ""}};
}

template <>
inline std::vector<Golden<Reassignment>> GoldensOf() {
  return {{"Reassignment",
           Reassignment{7, {SampleAssigned(1), SampleAssigned(2)}, 0x105, 42,
                        Seq(0xe8, 4)},
           "2a000000000000000700000000000000020000000101000001030000"
           "00111213040000002122232401090000020100000103000000121314"
           "0400000022232425020900000501000004000000e8e9eaeb",
           "0f0000007364722d726561737369676e2d7632070000000000000002"
           "00000001010000010300000011121304000000212223240109000002"
           "010000010300000012131404000000222324250209000005010000"},
          {"Reassignment/empty", Reassignment{8, {}, 0x106, 0, Seq(0xec, 4)},
           "00000000000000000800000000000000000000000601000004000000"
           "ecedeeef",
           "0f0000007364722d726561737369676e2d7632080000000000000000"
           "00000006010000"}};
}

template <>
inline std::vector<Golden<KeepAlive>> GoldensOf() {
  return {{"KeepAlive", KeepAlive{SampleToken()},
           "080706050403020115cd5b0700000000070000000400000030313233",
           ""}};
}

template <>
inline std::vector<Golden<SlaveAck>> GoldensOf() {
  return {{"SlaveAck", SlaveAck{0x0a0b0c0d0e0f1011ull},
           "11100f0e0d0c0b0a",
           ""}};
}

template <>
inline std::vector<Golden<AuditSubmit>> GoldensOf() {
  return {{"AuditSubmit/no_vv", AuditSubmit{42, SamplePledge(), {}},
           "2a0000000000000002020000006b310100000061010000007a030000"
           "00702e2a09000000050000004041424344080706050403020115cd5b"
           "07000000000700000004000000303132330b00000004000000505152"
           "53",
           ""},
          {"AuditSubmit/vv", AuditSubmit{42, SamplePledge(), SampleVv(4)},
           "2a0000000000000002020000006b310100000061010000007a030000"
           "00702e2a09000000050000004041424344080706050403020115cd5b"
           "07000000000700000004000000303132330b00000004000000505152"
           "530b0000000800000000000000040000000000000005000000808182"
           "83840400000090919293",
           ""}};
}

template <>
inline std::vector<Golden<BadReadNotice>> GoldensOf() {
  return {{"BadReadNotice", BadReadNotice{42, SamplePledge(), Seq(0xf0, 5)},
           "2a0000000000000002020000006b310100000061010000007a030000"
           "00702e2a09000000050000004041424344080706050403020115cd5b"
           "07000000000700000004000000303132330b00000004000000505152"
           "5305000000f0f1f2f3f4",
           ""}};
}

template <>
inline std::vector<Golden<VvExchange>> GoldensOf() {
  return {{"VvExchange", VvExchange{12, {SampleAvv(4), SampleAvv(5)}},
           "0c000000020000000b00000008000000000000000400000000000000"
           "0500000080818283840400000090919293080706050403020115cd5b"
           "07000000000700000004000000303132330301000001030000001314"
           "1504000000232425260b000000080000000000000005000000000000"
           "000500000080818283840400000090919293080706050403020115cd"
           "5b070000000007000000040000003031323303010000010300000013"
           "14150400000023242526",
           ""}};
}

template <>
inline std::vector<Golden<ForkEvidence>> GoldensOf() {
  return {{"ForkEvidence", ForkEvidence{42, SampleChain()},
           "2a000000000000000b00000008000000000000000400000000000000"
           "0500000080818283840400000090919293080706050403020115cd5b"
           "07000000000700000004000000303132330301000001030000001314"
           "1504000000232425260b000000080000000000000005000000000000"
           "000500000080818283840400000090919293080706050403020115cd"
           "5b070000000007000000040000003031323303010000010300000013"
           "14150400000023242526020000000101000001030000001112130400"
           "0000212223240201000001030000001213140400000022232425",
           ""}};
}

template <>
inline std::vector<Golden<PlacementQuery>> GoldensOf() {
  return {{"PlacementQuery", PlacementQuery{Seq(0xd8, 3)},
           "03000000d8d9da",
           ""}};
}

template <>
inline std::vector<Golden<PlacementReply>> GoldensOf() {
  return {{"PlacementReply", PlacementReply{true, SamplePlacement()},
           "01030000000000000002000000010000006701000000700300000002"
           "000000010000000200000001000000030000000000000004000000a0"
           "a1a2a3",
           ""}};
}

template <>
inline std::vector<Golden<StateUpdateBatch>> GoldensOf() {
  return {{"StateUpdateBatch",
           StateUpdateBatch{5, {SampleBatch(), {WriteOp::Put("q", "r")}},
                            SampleToken(), SampleCommit()},
           "0500000000000000020000000300000000010000006b010000007601"
           "01000000640000000002010000006102000000787901000000000100"
           "0000710100000072080706050403020115cd5b070000000007000000"
           "04000000303132330700000005000000000000000800000000000000"
           "050000006061626364b168de3a000000000400000070717273",
           ""}};
}

template <>
inline std::vector<Golden<TobWrite>> GoldensOf() {
  return {{"TobWrite", SampleTobWrite(1),
           "02000000150000001f000000000000000300000000010000006b0100"
           "00007601010000006400000000020100000061020000007879",
           ""}};
}

template <>
inline std::vector<Golden<TobWriteBundle>> GoldensOf() {
  return {{"TobWriteBundle",
           TobWriteBundle{{SampleTobWrite(1), SampleTobWrite(2)}},
           "0200000002000000150000001f000000000000000300000000010000"
           "006b0100000076010100000064000000000201000000610200000078"
           "79030000001600000020000000000000000300000000010000006b01"
           "0000007601010000006400000000020100000061020000007879",
           ""}};
}

template <>
inline std::vector<Golden<TobGossip>> GoldensOf() {
  return {{"TobGossip/no_exclusions",
           TobGossip{3, {SampleCert(1), SampleCert(2)}, {}},
           "03000000020000000101000001030000001112130400000021222324"
           "0201000001030000001213140400000022232425",
           ""},
          {"TobGossip/exclusions",
           TobGossip{3, {SampleCert(1)}, {0x101, 0x102}},
           "03000000010000000101000001030000001112130400000021222324"
           "020000000101000002010000",
           ""}};
}

// ---- Master-group broadcasts -------------------------------------------
//
// Each goes on the wire after its MsgType byte; these are the bodies.

template <>
inline std::vector<Golden<TotalOrderBroadcast::Submit>> GoldensOf() {
  return {{"TotalOrderBroadcast::Submit",
           TotalOrderBroadcast::Submit{0, 3, 2, ToBytes("dddd")},
           "00000000000000000300000002000000000000000400000064646464",
           ""}};
}

template <>
inline std::vector<Golden<TotalOrderBroadcast::Ordered>> GoldensOf() {
  return {{"TotalOrderBroadcast::Ordered",
           TotalOrderBroadcast::Ordered{3, 5, 3, 2, ToBytes("dddd")},
           "03000000000000000500000000000000030000000200000000000000"
           "0400000064646464",
           ""}};
}

template <>
inline std::vector<Golden<TotalOrderBroadcast::Nack>> GoldensOf() {
  return {{"TotalOrderBroadcast::Nack", TotalOrderBroadcast::Nack{3, 4},
           "03000000000000000400000000000000",
           ""}};
}

template <>
inline std::vector<Golden<TotalOrderBroadcast::Heartbeat>> GoldensOf() {
  return {{"TotalOrderBroadcast::Heartbeat",
           TotalOrderBroadcast::Heartbeat{3, 7},
           "03000000000000000700000000000000",
           ""}};
}

template <>
inline std::vector<Golden<TotalOrderBroadcast::NewEpoch>> GoldensOf() {
  return {{"TotalOrderBroadcast::NewEpoch", TotalOrderBroadcast::NewEpoch{3},
           "0300000000000000",
           ""}};
}

template <>
inline std::vector<Golden<TotalOrderBroadcast::SyncInfo>> GoldensOf() {
  return {{"TotalOrderBroadcast::SyncInfo",
           TotalOrderBroadcast::SyncInfo{3, 5},
           "03000000000000000500000000000000",
           ""}};
}

template <>
inline std::vector<Golden<BftOrderBroadcast::Request>> GoldensOf() {
  return {{"BftOrderBroadcast::Request",
           BftOrderBroadcast::Request{3, 2, ToBytes("rrr")},
           "03000000020000000000000003000000727272",
           ""}};
}

template <>
inline std::vector<Golden<BftOrderBroadcast::PrePrepare>> GoldensOf() {
  return {{"BftOrderBroadcast::PrePrepare",
           BftOrderBroadcast::PrePrepare{4, 3, 2, ToBytes("rrr")},
           "040000000000000003000000020000000000000003000000727272",
           ""}};
}

template <>
inline std::vector<Golden<BftOrderBroadcast::Vote>> GoldensOf() {
  return {{"BftOrderBroadcast::Vote", BftOrderBroadcast::Vote{4},
           "0400000000000000",
           ""}};
}

// ---- Merkle proofs and the baselines ----------------------------------------

template <>
inline std::vector<Golden<MerkleTree::Proof>> GoldensOf() {
  using Flags = MerkleTree::StepFlags;
  return {{"MerkleTree::Proof",
           MerkleTree::Proof{"k",
                             "v",
                             {{Flags::kSiblingOnRight, Seq(0xa0, 2)},
                              {Flags::kSiblingOnLeft, Seq(0xb0, 1)},
                              {Flags::kPromoted, {}}}},
           "010000006b0100000076030000000002000000a0a10101000000b002"
           "00000000",
           ""}};
}

template <>
inline std::vector<Golden<SignedRoot>> GoldensOf() {
  return {{"SignedRoot", SampleRoot(),
           "030000001011120500000000000000e8030000000000000400000020"
           "212223",
           "0d0000007364722d7373726f6f742d76310300000010111205000000"
           "00000000e803000000000000"}};
}

template <>
inline std::vector<Golden<BaselineRead>> GoldensOf() {
  return {{"BaselineRead", BaselineRead{45, SampleQuery()},
           "2d0000000000000002020000006b310100000061010000007a030000"
           "00702e2a09000000",
           ""}};
}

template <>
inline std::vector<Golden<BaselineReadReply>> GoldensOf() {
  return {{"BaselineReadReply",
           BaselineReadReply{46, SampleResult().Encode()},
           "2e00000000000000240000000102000000020000006b310200000076"
           "31020000006b3200000000fbffffffffffffff01",
           ""}};
}

template <>
inline std::vector<Golden<SsPointRead>> GoldensOf() {
  return {{"SsPointRead", SsPointRead{7, "k3"},
           "0700000000000000020000006b33",
           ""}};
}

template <>
inline std::vector<Golden<SsPointReadReply>> GoldensOf() {
  return {{"SsPointReadReply/proof",
           SsPointReadReply{7, Seq(0xe0, 3), SampleRoot()},
           "07000000000000000103000000e0e1e2030000001011120500000000"
           "000000e8030000000000000400000020212223",
           ""},
          {"SsPointReadReply/absent",
           SsPointReadReply{7, std::nullopt, SampleRoot()},
           "070000000000000000030000001011120500000000000000e8030000"
           "000000000400000020212223",
           ""}};
}

template <>
inline std::vector<Golden<SsStateUpdate>> GoldensOf() {
  return {{"SsStateUpdate", SsStateUpdate{SampleRoot(), SampleBatch()},
           "030000001011120500000000000000e8030000000000000400000020"
           "2122230300000000010000006b010000007601010000006400000000"
           "020100000061020000007879",
           ""}};
}

// ---- The trace file ----------------------------------------------------------

template <>
inline std::vector<Golden<TraceFile>> GoldensOf() {
  return {{"TraceFile", SampleTraceFile(),
           "53445254020002000000000000000400000072656164020000000100"
           "00000102000000633104000000020000000001000000dc0500000000"
           "00000700000001000000feffffffffffffff01000000010001010100"
           "00000100010100000003000000000000000300000000000000280000"
           "00000000000000000000004740020000000300000002000000000000"
           "002800000001000000000000000900000000000000",
           ""}};
}

}  // namespace sdr::golden

#endif  // SDR_TESTS_WIRE_GOLDEN_H_
