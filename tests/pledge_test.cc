// Unit tests for certificates, version tokens, pledges and wire messages.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/core/certificate.h"
#include "src/core/messages.h"
#include "src/core/pledge.h"
#include "src/crypto/sha1.h"
#include "src/store/executor.h"
#include "src/util/rng.h"
#include "tests/hex.h"

namespace sdr {
namespace {

struct Keys {
  Keys() : rng(7) {
    content = KeyPair::Generate(SignatureScheme::kEd25519, rng);
    master = KeyPair::Generate(SignatureScheme::kEd25519, rng);
    slave = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  }
  Rng rng;
  KeyPair content, master, slave;
};

TEST(CertificateTest, ChainVerifies) {
  Keys k;
  Signer owner(k.content);
  Signer master_signer(k.master);

  Certificate master_cert =
      IssueCertificate(owner, 2, Role::kMaster, k.master.public_key);
  EXPECT_TRUE(VerifyCertificate(SignatureScheme::kEd25519,
                                k.content.public_key, master_cert));

  Certificate slave_cert =
      IssueCertificate(master_signer, 9, Role::kSlave, k.slave.public_key);
  EXPECT_TRUE(VerifyCertificate(SignatureScheme::kEd25519, k.master.public_key,
                                slave_cert));
  // Cross-verification fails: the slave cert is not signed by the owner.
  EXPECT_FALSE(VerifyCertificate(SignatureScheme::kEd25519,
                                 k.content.public_key, slave_cert));
}

TEST(CertificateTest, TamperedFieldsBreakSignature) {
  Keys k;
  Signer owner(k.content);
  Certificate cert =
      IssueCertificate(owner, 2, Role::kMaster, k.master.public_key);

  Certificate subject_swap = cert;
  subject_swap.subject = 3;
  EXPECT_FALSE(VerifyCertificate(SignatureScheme::kEd25519,
                                 k.content.public_key, subject_swap));

  Certificate role_swap = cert;
  role_swap.role = Role::kSlave;
  EXPECT_FALSE(VerifyCertificate(SignatureScheme::kEd25519,
                                 k.content.public_key, role_swap));

  Certificate key_swap = cert;
  key_swap.subject_public_key = k.slave.public_key;
  EXPECT_FALSE(VerifyCertificate(SignatureScheme::kEd25519,
                                 k.content.public_key, key_swap));
}

TEST(CertificateTest, SerdeRoundTrip) {
  Keys k;
  Signer owner(k.content);
  Certificate cert =
      IssueCertificate(owner, 2, Role::kMaster, k.master.public_key);
  Writer w;
  cert.EncodeTo(w);
  Reader r(w.bytes());
  Certificate decoded = WireRead<Certificate>(r);
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(decoded, cert);
}

TEST(VersionTokenTest, SignAndVerify) {
  Keys k;
  Signer master(k.master);
  VersionToken token = MakeVersionToken(master, 2, 17, 1000000);
  EXPECT_TRUE(VerifyVersionToken(SignatureScheme::kEd25519,
                                 k.master.public_key, token));
  VersionToken forged = token;
  forged.content_version = 18;  // claim a newer version
  EXPECT_FALSE(VerifyVersionToken(SignatureScheme::kEd25519,
                                  k.master.public_key, forged));
}

TEST(VersionTokenTest, FreshnessWindow) {
  Keys k;
  Signer master(k.master);
  VersionToken token = MakeVersionToken(master, 2, 1, 10 * kSecond);
  EXPECT_TRUE(TokenIsFresh(token, 10 * kSecond, 2 * kSecond));
  EXPECT_TRUE(TokenIsFresh(token, 12 * kSecond, 2 * kSecond));
  EXPECT_FALSE(TokenIsFresh(token, 12 * kSecond + 1, 2 * kSecond));
}

TEST(PledgeTest, SignVerifyRoundTrip) {
  Keys k;
  Signer master(k.master);
  Signer slave(k.slave);
  VersionToken token = MakeVersionToken(master, 2, 5, 123456);
  Pledge pledge = MakePledge(slave, 9, Query::Get("item/1"), Bytes(20, 0xaa),
                             token);
  EXPECT_TRUE(VerifyPledgeSignature(SignatureScheme::kEd25519,
                                    k.slave.public_key, pledge));

  auto decoded = Pledge::Decode(pledge.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, pledge);
  EXPECT_TRUE(VerifyPledgeSignature(SignatureScheme::kEd25519,
                                    k.slave.public_key, *decoded));
}

TEST(PledgeTest, AnyFieldTamperBreaksSignature) {
  Keys k;
  Signer master(k.master);
  Signer slave(k.slave);
  VersionToken token = MakeVersionToken(master, 2, 5, 123456);
  Pledge pledge =
      MakePledge(slave, 9, Query::Get("item/1"), Bytes(20, 0xaa), token);

  Pledge p1 = pledge;
  p1.query = Query::Get("item/2");
  EXPECT_FALSE(
      VerifyPledgeSignature(SignatureScheme::kEd25519, k.slave.public_key, p1));

  Pledge p2 = pledge;
  p2.result_sha1 = Bytes(20, 0xbb);
  EXPECT_FALSE(
      VerifyPledgeSignature(SignatureScheme::kEd25519, k.slave.public_key, p2));

  Pledge p3 = pledge;
  p3.token.content_version = 6;
  EXPECT_FALSE(
      VerifyPledgeSignature(SignatureScheme::kEd25519, k.slave.public_key, p3));

  Pledge p4 = pledge;
  p4.slave = 10;
  EXPECT_FALSE(
      VerifyPledgeSignature(SignatureScheme::kEd25519, k.slave.public_key, p4));
}

TEST(PledgeTest, NonFrameability) {
  // A client that wants to frame the slave must forge a pledge with a bad
  // hash — but it cannot produce the slave's signature.
  Keys k;
  Signer master(k.master);
  KeyPair client_key = KeyPair::Generate(SignatureScheme::kEd25519, k.rng);
  Signer client(client_key);
  VersionToken token = MakeVersionToken(master, 2, 5, 1);
  Pledge forged;
  forged.query = Query::Get("x");
  forged.result_sha1 = Bytes(20, 0x01);
  forged.token = token;
  forged.slave = 9;
  forged.signature = client.Sign(forged.SignedBody());  // wrong key
  EXPECT_FALSE(VerifyPledgeSignature(SignatureScheme::kEd25519,
                                     k.slave.public_key, forged));
}

// One honest read reply as a client sees it: slave 9, certified by master
// 2, serving a result under a token signed at 10 s; the client checks it at
// 10.5 s with a 2 s freshness window.
struct ReadFixture {
  ReadFixture() : master_signer(k.master), slave_signer(k.slave) {
    result.type = QueryResult::Type::kScalar;
    result.scalar = 42;
    slave_cert =
        IssueCertificate(master_signer, 9, Role::kSlave, k.slave.public_key);
    token = MakeVersionToken(master_signer, 2, 5, 10 * kSecond);
    pledge = MakePledge(slave_signer, 9, Query::Get("item/1"),
                        result.Sha1Digest(), token);
  }

  ReadVerdict Verify(const Pledge& p, const QueryResult& r,
                     const Bytes* master_key, SimTime now,
                     VerifyCache* cache = nullptr) const {
    return VerifyRead(SignatureScheme::kEd25519, r.Encode(), p, slave_cert,
                      master_key, now, 2 * kSecond, cache);
  }
  ReadVerdict Verify(const Pledge& p) const {
    return Verify(p, result, &k.master.public_key, kNow);
  }

  static constexpr SimTime kNow = 10 * kSecond + 500 * kMillisecond;
  Keys k;
  Signer master_signer;
  Signer slave_signer;
  QueryResult result;
  Certificate slave_cert;
  VersionToken token;
  Pledge pledge;
};

TEST(VerifyReadTest, AcceptsAnHonestReply) {
  ReadFixture f;
  EXPECT_EQ(f.Verify(f.pledge), ReadVerdict::kAccepted);
  VerifyCache cache;
  EXPECT_EQ(f.Verify(f.pledge, f.result, &f.k.master.public_key,
                     ReadFixture::kNow, &cache),
            ReadVerdict::kAccepted);
  EXPECT_EQ(f.Verify(f.pledge, f.result, &f.k.master.public_key,
                     ReadFixture::kNow, &cache),
            ReadVerdict::kAccepted);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(VerifyReadTest, RejectsAResultThatDoesNotMatchThePledgedHash) {
  ReadFixture f;
  QueryResult other = f.result;
  other.scalar = 43;
  EXPECT_EQ(f.Verify(f.pledge, other, &f.k.master.public_key,
                     ReadFixture::kNow),
            ReadVerdict::kHashMismatch);
}

TEST(VerifyReadTest, RejectsAPledgeFromAnotherSlave) {
  ReadFixture f;
  KeyPair other_key = KeyPair::Generate(SignatureScheme::kEd25519, f.k.rng);
  Signer other(other_key);
  Pledge pledge = MakePledge(other, 10, f.pledge.query, f.pledge.result_sha1,
                             f.token);
  EXPECT_EQ(f.Verify(pledge), ReadVerdict::kWrongSlave);
}

TEST(VerifyReadTest, RejectsATamperedPledgeSignature) {
  ReadFixture f;
  Pledge pledge = f.pledge;
  pledge.signature[0] ^= 0x01;
  EXPECT_EQ(f.Verify(pledge), ReadVerdict::kBadSignature);
}

TEST(VerifyReadTest, RejectsATokenFromAnUncertifiedMaster) {
  ReadFixture f;
  EXPECT_EQ(f.Verify(f.pledge, f.result, nullptr, ReadFixture::kNow),
            ReadVerdict::kBadSignature);
  // Nor does a key other than the signing master's pass.
  EXPECT_EQ(f.Verify(f.pledge, f.result, &f.k.content.public_key,
                     ReadFixture::kNow),
            ReadVerdict::kBadSignature);
}

TEST(VerifyReadTest, RejectsATamperedToken) {
  ReadFixture f;
  // The slave signs over a token whose version was bumped after the master
  // signed it: the pledge signature holds, the token's does not.
  VersionToken token = f.token;
  token.content_version = 6;
  Pledge pledge = MakePledge(f.slave_signer, 9, f.pledge.query,
                             f.pledge.result_sha1, token);
  EXPECT_EQ(f.Verify(pledge), ReadVerdict::kBadSignature);
}

TEST(VerifyReadTest, RejectsAStaleToken) {
  ReadFixture f;
  EXPECT_EQ(f.Verify(f.pledge, f.result, &f.k.master.public_key,
                     12 * kSecond),
            ReadVerdict::kAccepted);
  EXPECT_EQ(f.Verify(f.pledge, f.result, &f.k.master.public_key,
                     12 * kSecond + 1),
            ReadVerdict::kStale);
}

TEST(VerifyReadTest, ReportsTheFirstFailingCheck) {
  ReadFixture f;
  QueryResult other = f.result;
  other.scalar = 43;
  EXPECT_EQ(f.Verify(f.pledge, other, &f.k.master.public_key,
                     60 * kSecond),
            ReadVerdict::kHashMismatch);
}

// Byte strings no QueryResult::Encode produces, each one edit away from
// the canonical encoding of `result`.
std::vector<Bytes> NonCanonicalEncodings(const QueryResult& result) {
  const Bytes canonical = result.Encode();
  std::vector<Bytes> out(6, canonical);
  out[0].push_back(0);  // a trailing byte
  out[1][0] = 3;        // an unknown result type
  out[2].back() = 2;    // a bool that is neither 0 nor 1
  out[3][1] += 1;       // one row more than the bytes hold
  out[4].pop_back();    // truncated
  out[5].clear();       // nothing at all
  return out;
}

TEST(VerifyReadTest, RejectsResultBytesThatAreNotACanonicalEncoding) {
  ReadFixture f;
  EXPECT_TRUE(WireWellFormed<QueryResult>(f.result.Encode()));
  for (const Bytes& bytes : NonCanonicalEncodings(f.result)) {
    SCOPED_TRACE(HexEncode(bytes));
    EXPECT_FALSE(WireWellFormed<QueryResult>(bytes));
    EXPECT_FALSE(QueryResult::Decode(bytes).ok());
    // Pledged faithfully: the hash is of exactly these bytes and both
    // signatures hold, so only the well-formedness check rejects it.
    Pledge pledge = MakePledge(f.slave_signer, 9, f.pledge.query,
                               Sha1::Hash(bytes), f.token);
    EXPECT_EQ(VerifyRead(SignatureScheme::kEd25519, bytes, pledge,
                         f.slave_cert, &f.k.master.public_key,
                         ReadFixture::kNow, 2 * kSecond, nullptr),
              ReadVerdict::kHashMismatch);
  }
}

TEST(MessagesTest, TypedPayloadRoundTrips) {
  Keys k;
  Signer master(k.master);
  Signer slave_signer(k.slave);

  // Spot-check a representative subset of messages through their full
  // EncodeTyped -> PeekType -> Decode path.
  ReadRequest rr;
  rr.request_id = 42;
  rr.query = Query::Grep("a.*b", "lo", "hi");
  Bytes wire = EncodeTyped(MsgType::kReadRequest, rr);
  // One buffer, the same bytes as the type byte before the body.
  EXPECT_EQ(wire, WithType(MsgType::kReadRequest, rr.Encode()));
  EXPECT_EQ(wire.capacity(), wire.size());
  auto type = PeekType(wire);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, MsgType::kReadRequest);
  auto rr2 = ReadRequest::Decode(Bytes(wire.begin() + 1, wire.end()));
  ASSERT_TRUE(rr2.ok());
  EXPECT_EQ(rr2->request_id, 42u);
  EXPECT_EQ(rr2->query, rr.query);

  VersionToken token = MakeVersionToken(master, 2, 3, 99);
  StateUpdateBatch su;
  su.first_version = 2;
  su.batches = {{WriteOp::Put("k", "v")}, {WriteOp::Delete("j")}};
  su.token = token;
  su.commit = MakeBatchCommit(master, 2, 2, 3, su.BatchesSha1(), 99);
  auto su2 = StateUpdateBatch::Decode(su.Encode());
  ASSERT_TRUE(su2.ok());
  EXPECT_EQ(su2->first_version, 2u);
  EXPECT_EQ(su2->batches, su.batches);
  EXPECT_EQ(su2->token, token);
  EXPECT_EQ(su2->commit, su.commit);
  EXPECT_EQ(su2->BatchesSha1(), su.commit.batches_sha1);

  Pledge pledge =
      MakePledge(slave_signer, 9, Query::Get("k"), Bytes(20, 1), token);
  DoubleCheckRequest dc;
  dc.request_id = 7;
  dc.pledge = pledge;
  auto dc2 = DoubleCheckRequest::Decode(dc.Encode());
  ASSERT_TRUE(dc2.ok());
  EXPECT_EQ(dc2->pledge, pledge);

  TobWrite tw;
  tw.origin_master = 2;
  tw.client = 11;
  tw.request_id = 5;
  tw.batch = {WriteOp::Delete("gone")};
  auto tw2 = TobWrite::Decode(tw.Encode());
  ASSERT_TRUE(tw2.ok());
  EXPECT_EQ(tw2->batch, tw.batch);
  EXPECT_EQ(tw2->client, 11u);
}

TEST(MessagesTest, DecodeRejectsTruncation) {
  ReadRequest rr;
  rr.request_id = 42;
  rr.query = Query::Get("k");
  Bytes body = rr.Encode();
  for (size_t cut : {size_t(0), size_t(1), body.size() - 1}) {
    Bytes truncated(body.begin(), body.begin() + static_cast<long>(cut));
    EXPECT_FALSE(ReadRequest::Decode(truncated).ok()) << cut;
  }
  // Trailing garbage is also rejected.
  Bytes padded = body;
  padded.push_back(0x00);
  EXPECT_FALSE(ReadRequest::Decode(padded).ok());
}

TEST(MessagesTest, PeekTypeOnEmptyFails) {
  EXPECT_FALSE(PeekType(Bytes{}).ok());
  EXPECT_FALSE(PeekTobType(Bytes{}).ok());
}

// A 3-member read set, and every edit to it that must break the master's
// signature over it: swap a member for another slave, drop one, add one,
// reorder, or change a member's auditor.
std::vector<AssignedSlave> ThreeMemberSet(Signer& master, const Keys& k) {
  std::vector<AssignedSlave> set;
  for (NodeId slave : {9u, 10u, 11u}) {
    set.push_back({IssueCertificate(master, slave, Role::kSlave,
                                    k.slave.public_key),
                   4});
  }
  return set;
}

std::vector<std::vector<AssignedSlave>> EditedSets(
    Signer& master, const Keys& k, const std::vector<AssignedSlave>& set) {
  AssignedSlave other{
      IssueCertificate(master, 12, Role::kSlave, k.slave.public_key), 4};
  std::vector<std::vector<AssignedSlave>> edited(5, set);
  edited[0][1] = other;                                // swapped
  edited[1].pop_back();                                // dropped
  edited[2].push_back(other);                          // added
  std::swap(edited[3][0], edited[3][2]);               // reordered
  edited[4][2].auditor = 5;                            // redirected
  return edited;
}

TEST(ClientHelloReplyTest, SignatureCoversAssignment) {
  Keys k;
  Signer master(k.master);
  ClientHelloReply reply;
  reply.server_nonce = Bytes(16, 0x11);
  reply.seq = 3;
  reply.slaves = ThreeMemberSet(master, k);
  Bytes nonce(16, 0x22);
  reply.signature = master.Sign(reply.SignedBody(nonce));
  auto verifies = [&](const ClientHelloReply& r, const Bytes& n) {
    return VerifySignature(SignatureScheme::kEd25519, k.master.public_key,
                           r.SignedBody(n), reply.signature);
  };

  EXPECT_TRUE(verifies(reply, nonce));
  for (const std::vector<AssignedSlave>& set :
       EditedSets(master, k, reply.slaves)) {
    ClientHelloReply edited = reply;
    edited.slaves = set;
    EXPECT_FALSE(verifies(edited, nonce));
  }
  ClientHelloReply renumbered = reply;
  renumbered.seq = 4;
  EXPECT_FALSE(verifies(renumbered, nonce));
  // A replayed reply fails for a fresh nonce.
  EXPECT_FALSE(verifies(reply, Bytes(16, 0x33)));
}

TEST(ReassignmentTest, SignatureCoversAssignment) {
  Keys k;
  Signer master(k.master);
  Reassignment msg;
  msg.seq = 3;
  msg.slaves = ThreeMemberSet(master, k);
  msg.excluded_slave = 8;
  msg.trace_id = 77;
  msg.signature = master.Sign(msg.SignedBody());
  auto verifies = [&](const Reassignment& m) {
    return VerifySignature(SignatureScheme::kEd25519, k.master.public_key,
                           m.SignedBody(), msg.signature);
  };

  EXPECT_TRUE(verifies(msg));
  for (const std::vector<AssignedSlave>& set :
       EditedSets(master, k, msg.slaves)) {
    Reassignment edited = msg;
    edited.slaves = set;
    EXPECT_FALSE(verifies(edited));
  }
  Reassignment renumbered = msg;
  renumbered.seq = 4;
  EXPECT_FALSE(verifies(renumbered));
  // The trace id is observability metadata outside the signature.
  Reassignment retraced = msg;
  retraced.trace_id = 78;
  EXPECT_TRUE(verifies(retraced));
}

TEST(ReassignmentTest, AnEmptySetDecodesButAnEmptyHelloReplyDoesNot) {
  Keys k;
  Signer master(k.master);
  Reassignment emptied;
  emptied.seq = 5;
  emptied.excluded_slave = 8;
  emptied.signature = master.Sign(emptied.SignedBody());
  auto decoded = Reassignment::Decode(emptied.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->slaves.empty());
  EXPECT_EQ(decoded->seq, 5u);

  ClientHelloReply reply;
  reply.server_nonce = Bytes(16, 1);
  reply.seq = 5;
  reply.signature = master.Sign(reply.SignedBody(Bytes(16, 2)));
  EXPECT_FALSE(ClientHelloReply::Decode(reply.Encode()).ok());
}

}  // namespace
}  // namespace sdr
