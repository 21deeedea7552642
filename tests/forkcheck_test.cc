// Tests for the fork-consistency subsystem (src/forkcheck/): version-vector
// commitments, the conflict predicate, pledge chains, the detector, offline
// evidence verification, the optional wire fields, and the end-to-end
// equivocating-slave scenario through the chaos harness.
#include <gtest/gtest.h>

#include "src/chaos/runner.h"
#include "src/core/messages.h"
#include "src/forkcheck/fork.h"
#include "src/util/rng.h"

namespace sdr {
namespace {

constexpr SignatureScheme kScheme = SignatureScheme::kEd25519;

// A content owner, one master and one slave with the full certificate
// chain, plus helpers to mint pledges and attested commitments.
struct ForkFixture {
  ForkFixture() : rng(11) {
    content = KeyPair::Generate(kScheme, rng);
    master = KeyPair::Generate(kScheme, rng);
    slave = KeyPair::Generate(kScheme, rng);
    Signer owner(content);
    Signer master_signer(master);
    master_cert = IssueCertificate(owner, kMasterId, Role::kMaster,
                                   master.public_key);
    slave_cert = IssueCertificate(master_signer, kSlaveId, Role::kSlave,
                                  slave.public_key);
  }

  Pledge MintPledge(uint64_t version, const std::string& key) {
    Signer master_signer(master);
    Signer slave_signer(slave);
    VersionToken token =
        MakeVersionToken(master_signer, kMasterId, version, 1000000);
    QueryResult result;
    result.type = QueryResult::Type::kScalar;
    result.scalar = static_cast<int64_t>(version);
    return MakePledge(slave_signer, kSlaveId, Query::Get(key),
                      result.Sha1Digest(), token);
  }

  // One commitment from a fresh chain extended `length` times, the last
  // pledge at `version`.
  AttestedVv Attested(const VersionVector& vv, uint64_t version) {
    Signer master_signer(master);
    AttestedVv avv;
    avv.vv = vv;
    avv.token = MakeVersionToken(master_signer, kMasterId, version, 1000000);
    avv.slave_cert = slave_cert;
    return avv;
  }

  static constexpr NodeId kMasterId = 2;
  static constexpr NodeId kSlaveId = 9;
  Rng rng;
  KeyPair content, master, slave;
  Certificate master_cert, slave_cert;
};

// ---------------------------------------------------------------------------
// VersionVector: serde, signatures, tampering.
// ---------------------------------------------------------------------------

TEST(VersionVectorTest, SerdeRoundTrip) {
  ForkFixture f;
  Signer slave_signer(f.slave);
  Bytes head(20, 0xab);
  VersionVector vv =
      MakeVersionVector(slave_signer, f.kSlaveId, 17, 42, head);
  Writer w;
  vv.EncodeTo(w);
  Reader r(w.bytes());
  VersionVector decoded = VersionVector::DecodeFrom(r);
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(decoded.slave, vv.slave);
  EXPECT_EQ(decoded.content_version, 17u);
  EXPECT_EQ(decoded.chain_length, 42u);
  EXPECT_EQ(decoded.head_sha1, head);
  EXPECT_EQ(decoded.signature, vv.signature);
}

TEST(VersionVectorTest, SignAndVerify) {
  ForkFixture f;
  Signer slave_signer(f.slave);
  VersionVector vv =
      MakeVersionVector(slave_signer, f.kSlaveId, 3, 7, Bytes(20, 1));
  EXPECT_TRUE(VerifyVersionVector(kScheme, f.slave.public_key, vv));
  EXPECT_FALSE(VerifyVersionVector(kScheme, f.master.public_key, vv));
}

TEST(VersionVectorTest, TamperedFieldsBreakSignature) {
  ForkFixture f;
  Signer slave_signer(f.slave);
  VersionVector vv =
      MakeVersionVector(slave_signer, f.kSlaveId, 3, 7, Bytes(20, 1));

  VersionVector version_bump = vv;
  version_bump.content_version = 4;
  EXPECT_FALSE(VerifyVersionVector(kScheme, f.slave.public_key, version_bump));

  VersionVector length_bump = vv;
  length_bump.chain_length = 8;
  EXPECT_FALSE(VerifyVersionVector(kScheme, f.slave.public_key, length_bump));

  VersionVector head_swap = vv;
  head_swap.head_sha1 = Bytes(20, 2);
  EXPECT_FALSE(VerifyVersionVector(kScheme, f.slave.public_key, head_swap));
}

// ---------------------------------------------------------------------------
// VvsConflict: the honest-total-order predicate.
// ---------------------------------------------------------------------------

VersionVector Vv(uint64_t version, uint64_t length, uint8_t head_byte) {
  VersionVector v;
  v.slave = 9;
  v.content_version = version;
  v.chain_length = length;
  v.head_sha1 = Bytes(20, head_byte);
  return v;
}

TEST(VvsConflictTest, SameLengthMustAgreeExactly) {
  EXPECT_FALSE(VvsConflict(Vv(5, 10, 1), Vv(5, 10, 1)));  // same commitment
  EXPECT_TRUE(VvsConflict(Vv(5, 10, 1), Vv(5, 10, 2)));   // two heads
  EXPECT_TRUE(VvsConflict(Vv(5, 10, 1), Vv(6, 10, 1)));   // two versions
}

TEST(VvsConflictTest, VersionMustFollowChainOrder) {
  // Honest growth: longer chain, same-or-later version.
  EXPECT_FALSE(VvsConflict(Vv(5, 10, 1), Vv(5, 11, 2)));
  EXPECT_FALSE(VvsConflict(Vv(5, 10, 1), Vv(9, 30, 2)));
  // Inversion: the shorter chain attests the later version.
  EXPECT_TRUE(VvsConflict(Vv(9, 10, 1), Vv(5, 11, 2)));
  EXPECT_TRUE(VvsConflict(Vv(5, 11, 2), Vv(9, 10, 1)));  // symmetric
}

// ---------------------------------------------------------------------------
// PledgeChain: per-read commitments.
// ---------------------------------------------------------------------------

TEST(PledgeChainTest, EveryReadExtendsAndCommits) {
  ForkFixture f;
  Signer slave_signer(f.slave);
  PledgeChain chain;
  EXPECT_EQ(chain.pledges_folded(), 0u);

  Pledge p1 = f.MintPledge(1, "a");
  VersionVector vv1 =
      chain.ExtendAndCommit(slave_signer, f.kSlaveId, 1, p1);
  EXPECT_EQ(vv1.chain_length, 1u);
  EXPECT_EQ(vv1.content_version, 1u);
  EXPECT_EQ(vv1.head_sha1, chain.head());
  EXPECT_TRUE(VerifyVersionVector(kScheme, f.slave.public_key, vv1));

  Pledge p2 = f.MintPledge(1, "b");
  VersionVector vv2 =
      chain.ExtendAndCommit(slave_signer, f.kSlaveId, 1, p2);
  EXPECT_EQ(vv2.chain_length, 2u);
  EXPECT_NE(vv2.head_sha1, vv1.head_sha1);
  EXPECT_FALSE(VvsConflict(vv1, vv2));  // one honest chain, no conflict
}

TEST(PledgeChainTest, SamePledgesSameHeadsForkedPledgesDiverge) {
  ForkFixture f;
  Signer slave_signer(f.slave);
  Pledge shared = f.MintPledge(1, "a");
  Pledge for_a = f.MintPledge(2, "x");
  Pledge for_b = f.MintPledge(2, "y");

  PledgeChain a, b;
  a.ExtendAndCommit(slave_signer, f.kSlaveId, 1, shared);
  b.ExtendAndCommit(slave_signer, f.kSlaveId, 1, shared);
  EXPECT_EQ(a.head(), b.head());  // deterministic fold

  // The fork: same length, different pledges — a same-length commitment
  // pair is now conflicting even though both carry version 2.
  VersionVector vva = a.ExtendAndCommit(slave_signer, f.kSlaveId, 2, for_a);
  VersionVector vvb = b.ExtendAndCommit(slave_signer, f.kSlaveId, 2, for_b);
  EXPECT_NE(a.head(), b.head());
  EXPECT_TRUE(VvsConflict(vva, vvb));
}

// ---------------------------------------------------------------------------
// ForkDetector.
// ---------------------------------------------------------------------------

TEST(ForkDetectorTest, HonestChainNeverConflicts) {
  ForkFixture f;
  Signer slave_signer(f.slave);
  PledgeChain chain;
  ForkDetector detector;
  for (uint64_t i = 1; i <= 20; ++i) {
    VersionVector vv = chain.ExtendAndCommit(slave_signer, f.kSlaveId,
                                             /*version=*/i / 3,
                                             f.MintPledge(i / 3, "k"));
    EXPECT_FALSE(detector.Observe(f.Attested(vv, i / 3)).has_value()) << i;
  }
  EXPECT_EQ(detector.tracked(), 20u);
}

TEST(ForkDetectorTest, ReObservationIsNotAConflict) {
  ForkFixture f;
  ForkDetector detector;
  AttestedVv avv = f.Attested(Vv(5, 10, 1), 5);
  EXPECT_FALSE(detector.Observe(avv).has_value());
  EXPECT_FALSE(detector.Observe(avv).has_value());
  EXPECT_EQ(detector.tracked(), 1u);
}

TEST(ForkDetectorTest, FlagsSameLengthDifferentHeads) {
  ForkFixture f;
  ForkDetector detector;
  EXPECT_FALSE(detector.Observe(f.Attested(Vv(5, 10, 1), 5)).has_value());
  auto conflict = detector.Observe(f.Attested(Vv(5, 10, 2), 5));
  ASSERT_TRUE(conflict.has_value());
  EXPECT_EQ(conflict->first.vv.head_sha1, Bytes(20, 1));
  EXPECT_EQ(conflict->second.vv.head_sha1, Bytes(20, 2));
  // One report per slave: the fork never reconverges, more pairs add nothing.
  EXPECT_FALSE(detector.Observe(f.Attested(Vv(5, 10, 3), 5)).has_value());
}

TEST(ForkDetectorTest, FlagsVersionOrderInversionAcrossLengths) {
  ForkFixture f;
  ForkDetector detector;
  EXPECT_FALSE(detector.Observe(f.Attested(Vv(20, 51, 1), 20)).has_value());
  // A longer chain attesting an older version: provable inversion.
  auto conflict = detector.Observe(f.Attested(Vv(7, 65, 2), 7));
  ASSERT_TRUE(conflict.has_value());
  EXPECT_TRUE(VvsConflict(conflict->first.vv, conflict->second.vv));
}

TEST(ForkDetectorTest, OutOfOrderObservationChecksBothNeighbours) {
  ForkFixture f;
  ForkDetector detector;
  EXPECT_FALSE(detector.Observe(f.Attested(Vv(1, 10, 1), 1)).has_value());
  EXPECT_FALSE(detector.Observe(f.Attested(Vv(9, 30, 2), 9)).has_value());
  // Lands between the two; conflicts with the successor (version 9 at a
  // longer chain than... no: 20 < 30 and 12 > 9 — inversion vs successor).
  auto conflict = detector.Observe(f.Attested(Vv(12, 20, 3), 12));
  ASSERT_TRUE(conflict.has_value());
}

// ---------------------------------------------------------------------------
// EvidenceChain / EvidenceBundle: serde and offline verification.
// ---------------------------------------------------------------------------

// A genuine conflicting pair, built the way the slave would: one shared
// prefix, two forked continuations.
EvidenceChain GenuineEvidence(ForkFixture& f) {
  Signer slave_signer(f.slave);
  PledgeChain a, b;
  Pledge shared = f.MintPledge(1, "a");
  a.ExtendAndCommit(slave_signer, f.kSlaveId, 1, shared);
  b.ExtendAndCommit(slave_signer, f.kSlaveId, 1, shared);
  VersionVector vva =
      a.ExtendAndCommit(slave_signer, f.kSlaveId, 2, f.MintPledge(2, "x"));
  VersionVector vvb =
      b.ExtendAndCommit(slave_signer, f.kSlaveId, 2, f.MintPledge(2, "y"));
  return MakeEvidenceChain(f.Attested(vva, 2), f.Attested(vvb, 2),
                           {f.master_cert});
}

TEST(EvidenceChainTest, SerdeRoundTrip) {
  ForkFixture f;
  EvidenceChain chain = GenuineEvidence(f);
  Bytes encoded = chain.Encode();
  auto decoded = EvidenceChain::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->a.vv.head_sha1, chain.a.vv.head_sha1);
  EXPECT_EQ(decoded->b.vv.chain_length, chain.b.vv.chain_length);
  ASSERT_EQ(decoded->master_certs.size(), 1u);
  EXPECT_EQ(decoded->master_certs[0], chain.master_certs[0]);
}

TEST(EvidenceChainTest, TruncationIsRejectedAtEveryLength) {
  ForkFixture f;
  Bytes encoded = GenuineEvidence(f).Encode();
  for (size_t cut = 0; cut < encoded.size(); cut += 13) {
    EXPECT_FALSE(
        EvidenceChain::Decode(BytesView(encoded.data(), cut)).ok())
        << "decoded from a " << cut << "-byte prefix";
  }
}

TEST(EvidenceChainTest, GenuineEvidenceVerifiesOffline) {
  ForkFixture f;
  std::string why;
  EXPECT_TRUE(VerifyEvidenceChain(kScheme, f.content.public_key,
                                  GenuineEvidence(f), &why))
      << why;
  EXPECT_TRUE(why.empty());
}

TEST(EvidenceChainTest, ConsistentPairIsNotEvidence) {
  ForkFixture f;
  Signer slave_signer(f.slave);
  PledgeChain chain;
  VersionVector vv1 =
      chain.ExtendAndCommit(slave_signer, f.kSlaveId, 1, f.MintPledge(1, "a"));
  VersionVector vv2 =
      chain.ExtendAndCommit(slave_signer, f.kSlaveId, 2, f.MintPledge(2, "b"));
  EvidenceChain honest = MakeEvidenceChain(f.Attested(vv1, 1),
                                           f.Attested(vv2, 2),
                                           {f.master_cert});
  std::string why;
  EXPECT_FALSE(VerifyEvidenceChain(kScheme, f.content.public_key, honest,
                                   &why));
  EXPECT_NE(why.find("chain-consistent"), std::string::npos) << why;
}

TEST(EvidenceChainTest, BrokenLinksFailVerification) {
  ForkFixture f;
  std::string why;

  EvidenceChain no_certs = GenuineEvidence(f);
  no_certs.master_certs.clear();
  EXPECT_FALSE(
      VerifyEvidenceChain(kScheme, f.content.public_key, no_certs, &why));

  EvidenceChain bad_vv_sig = GenuineEvidence(f);
  bad_vv_sig.a.vv.content_version ^= 1;
  EXPECT_FALSE(
      VerifyEvidenceChain(kScheme, f.content.public_key, bad_vv_sig, &why));

  EvidenceChain bad_token = GenuineEvidence(f);
  bad_token.b.token.content_version += 1;
  EXPECT_FALSE(
      VerifyEvidenceChain(kScheme, f.content.public_key, bad_token, &why));

  // Framing: master certificates not rooted in the content owner's key.
  EvidenceChain wrong_root = GenuineEvidence(f);
  EXPECT_FALSE(
      VerifyEvidenceChain(kScheme, f.master.public_key, wrong_root, &why));
}

TEST(EvidenceBundleTest, SerdeRoundTripAndTruncation) {
  ForkFixture f;
  EvidenceBundle bundle;
  bundle.scheme = kScheme;
  bundle.content_public_key = f.content.public_key;
  bundle.chains.push_back(GenuineEvidence(f));
  bundle.chains.push_back(GenuineEvidence(f));

  Bytes encoded = bundle.Encode();
  auto decoded = EvidenceBundle::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->scheme, kScheme);
  EXPECT_EQ(decoded->content_public_key, f.content.public_key);
  ASSERT_EQ(decoded->chains.size(), 2u);
  std::string why;
  EXPECT_TRUE(VerifyEvidenceChain(decoded->scheme,
                                  decoded->content_public_key,
                                  decoded->chains[0], &why))
      << why;

  encoded.pop_back();
  EXPECT_FALSE(EvidenceBundle::Decode(encoded).ok());
}

// ---------------------------------------------------------------------------
// Wire format: the optional trailing vv and the fork messages.
// ---------------------------------------------------------------------------

QueryResult SampleResult() {
  QueryResult result;
  result.type = QueryResult::Type::kScalar;
  result.scalar = 42;
  return result;
}

ReadReply SampleReply(ForkFixture& f) {
  ReadReply reply;
  reply.request_id = 77;
  reply.trace_id = 0x800000001;
  reply.ok = true;
  reply.result = SampleResult().Encode();
  reply.pledge = f.MintPledge(3, "k");
  return reply;
}

TEST(ForkWireTest, ReadReplyWithoutVvIsForkUnawareAndRoundTrips) {
  ForkFixture f;
  ReadReply reply = SampleReply(f);

  // Disabled mode: no vv, and the encoding carries not a single extra
  // byte for the field — it ends exactly where the fork-unaware format
  // ended (pledge last), which is what keeps baseline outputs identical.
  Bytes plain = reply.Encode();
  Writer manual;
  manual.U64(reply.request_id);
  manual.U64(reply.trace_id);
  manual.Bool(reply.ok);
  manual.Blob(SampleResult().Encode());  // one length-prefixed blob
  reply.pledge.EncodeTo(manual);
  EXPECT_EQ(plain, manual.Take());

  auto decoded = ReadReply::Decode(plain);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->vv.has_value());
}

TEST(ForkWireTest, ReadReplyVvRoundTripsAndTruncationFails) {
  ForkFixture f;
  Signer slave_signer(f.slave);
  ReadReply reply = SampleReply(f);
  PledgeChain chain;
  reply.vv = chain.ExtendAndCommit(slave_signer, f.kSlaveId, 3, reply.pledge);

  Bytes encoded = reply.Encode();
  auto decoded = ReadReply::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->vv.has_value());
  EXPECT_EQ(decoded->vv->chain_length, 1u);
  EXPECT_EQ(decoded->vv->head_sha1, chain.head());
  EXPECT_TRUE(
      VerifyVersionVector(kScheme, f.slave.public_key, *decoded->vv));

  // A truncated trailing vv must fail decode, not silently drop the field.
  Bytes cut(encoded.begin(), encoded.end() - 5);
  EXPECT_FALSE(ReadReply::Decode(cut).ok());
}

TEST(ForkWireTest, AuditSubmitCarriesTheOptionalVv) {
  ForkFixture f;
  Signer slave_signer(f.slave);
  AuditSubmit submit;
  submit.trace_id = 5;
  submit.pledge = f.MintPledge(2, "q");
  PledgeChain chain;
  submit.vv = chain.ExtendAndCommit(slave_signer, f.kSlaveId, 2, submit.pledge);

  auto decoded = AuditSubmit::Decode(submit.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->vv.has_value());
  EXPECT_EQ(decoded->vv->content_version, 2u);

  submit.vv.reset();
  auto plain = AuditSubmit::Decode(submit.Encode());
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->vv.has_value());
}

TEST(ForkWireTest, VvExchangeAndForkEvidenceRoundTrip) {
  ForkFixture f;
  VvExchange exchange;
  exchange.origin = 12;
  exchange.entries.push_back(f.Attested(Vv(5, 10, 1), 5));
  exchange.entries.push_back(f.Attested(Vv(6, 11, 2), 6));
  auto decoded = VvExchange::Decode(exchange.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->origin, 12u);
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries[1].vv.chain_length, 11u);

  ForkEvidence evidence;
  evidence.trace_id = 9;
  evidence.chain = GenuineEvidence(f);
  auto decoded_evidence = ForkEvidence::Decode(evidence.Encode());
  ASSERT_TRUE(decoded_evidence.ok());
  std::string why;
  EXPECT_TRUE(VerifyEvidenceChain(kScheme, f.content.public_key,
                                  decoded_evidence->chain, &why))
      << why;
}

// ---------------------------------------------------------------------------
// Scenario grammar: the fork behaviors echo through parse -> ToString.
// ---------------------------------------------------------------------------

TEST(ForkScenarioTest, ForkFlagsRoundTripThroughTheParser) {
  const char* kTexts[] = {
      "at 10s set_behavior slave:1 fork_views=true",
      "at 10s set_behavior slave:1 stale_pledge=true",
      "at 10s set_behavior slave:1 split_serve=true",
      "at 10s set_behavior slaves:odd fork_views=true split_serve=true; "
      "at 40s set_behavior slaves:odd fork_views=false split_serve=false",
  };
  for (const char* text : kTexts) {
    auto first = ParseScenario(text);
    ASSERT_TRUE(first.ok()) << text;
    auto second = ParseScenario(first->ToString());
    ASSERT_TRUE(second.ok()) << first->ToString();
    EXPECT_EQ(*first, *second) << text;
    EXPECT_EQ(first->ToString(), second->ToString());
  }
}

TEST(ForkScenarioTest, ForkFlagsApplyToSlaveBehavior) {
  auto scenario =
      ParseScenario("at 10s set_behavior slave:1 fork_views=true");
  ASSERT_TRUE(scenario.ok());
  ASSERT_EQ(scenario->events.size(), 1u);
  Slave::Behavior behavior;
  scenario->events[0].patch.ApplyTo(behavior);
  EXPECT_TRUE(behavior.fork_views);
  EXPECT_FALSE(behavior.split_serve);
  EXPECT_FALSE(behavior.stale_pledge);
}

// ---------------------------------------------------------------------------
// End to end: the equivocating slave is detected, proven, excluded.
// ---------------------------------------------------------------------------

ClusterConfig ForkConfig(uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.fork_check_enabled = true;
  config.client_mode = Client::LoadMode::kClosedLoop;
  config.client_think_time = 100 * kMillisecond;
  // Ten clients over four slaves: both id parities land on the forked
  // slave, so its two views are actually observed. A write mix keeps the
  // content version moving, which is what makes the fork divergent.
  config.num_clients = 10;
  config.client_write_fraction = 0.03;
  config.corpus.n_items = 50;
  config.mix.n_items = 50;
  config.write_gen.n_items = 50;
  return config;
}

TEST(ForkEndToEndTest, EquivocatingSlaveIsDetectedProvenAndExcluded) {
  Cluster cluster(ForkConfig(1));
  auto scenario =
      ParseScenario("at 5s set_behavior slave:1 fork_views=true");
  ASSERT_TRUE(scenario.ok());
  ChaosController controller(&cluster, *scenario,
                             DefaultCheckers(cluster.config()));
  controller.Install();
  cluster.RunFor(50 * kSecond);
  controller.Finish();
  for (const Violation& v : controller.violations()) {
    ADD_FAILURE() << v.ToString();
  }

  Cluster::Totals totals = cluster.ComputeTotals();
  EXPECT_GT(cluster.slave(1).metrics().equivocations_served, 0u);
  EXPECT_GT(totals.clients.forks_detected + totals.auditors.forks_detected,
            0u);
  EXPECT_GT(totals.clients.evidence_chains_emitted +
                totals.auditors.evidence_chains_emitted,
            0u);
  EXPECT_GT(totals.clients.vv_exchanges_sent, 0u);
  EXPECT_TRUE(cluster.ExcludedByAnyMaster(cluster.slave(1).id()));

  // Every emitted chain is transferable: it verifies against nothing but
  // the content owner's public key, and a serde round trip preserves that.
  ASSERT_FALSE(cluster.fork_evidence().empty());
  for (const EvidenceChain& chain : cluster.fork_evidence()) {
    auto reparsed = EvidenceChain::Decode(chain.Encode());
    ASSERT_TRUE(reparsed.ok());
    std::string why;
    EXPECT_TRUE(VerifyEvidenceChain(cluster.config().params.scheme,
                                    cluster.content().content_public_key,
                                    *reparsed, &why))
        << why;
    EXPECT_EQ(reparsed->a.vv.slave, cluster.slave(1).id());
  }
}

TEST(ForkEndToEndTest, HonestRunWithForkCheckingHasNoFalsePositives) {
  Cluster cluster(ForkConfig(2));
  ChaosController controller(&cluster, Scenario{},
                             DefaultCheckers(cluster.config()));
  controller.Install();
  cluster.RunFor(40 * kSecond);
  controller.Finish();
  for (const Violation& v : controller.violations()) {
    ADD_FAILURE() << v.ToString();
  }
  Cluster::Totals totals = cluster.ComputeTotals();
  EXPECT_GT(totals.clients.reads_accepted, 0u);
  EXPECT_GT(totals.clients.vv_exchanges_sent, 0u);  // the machinery ran...
  // ...and accused no one.
  EXPECT_EQ(totals.clients.forks_detected, 0u);
  EXPECT_EQ(totals.auditors.forks_detected, 0u);
  EXPECT_EQ(totals.clients.evidence_chains_emitted, 0u);
  EXPECT_EQ(totals.auditors.evidence_chains_emitted, 0u);
  EXPECT_EQ(totals.masters.slaves_excluded, 0u);
}

TEST(ForkEndToEndTest, DisabledModeAttachesNothing) {
  ClusterConfig config = ForkConfig(3);
  config.params.fork_check_enabled = false;
  Cluster cluster(config);
  cluster.RunFor(15 * kSecond);
  Cluster::Totals totals = cluster.ComputeTotals();
  EXPECT_GT(totals.clients.reads_accepted, 0u);
  EXPECT_EQ(totals.clients.vv_exchanges_sent, 0u);
  EXPECT_EQ(totals.clients.forks_detected, 0u);
  EXPECT_EQ(totals.auditors.forks_detected, 0u);
  for (int s = 0; s < cluster.num_slaves(); ++s) {
    EXPECT_EQ(cluster.slave(s).metrics().vvs_attached, 0u);
  }
}

}  // namespace
}  // namespace sdr
