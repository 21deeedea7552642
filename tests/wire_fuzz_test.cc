// Seeded mutation suite over every wire decoder. The corpus is the pinned
// golden encodings (tests/wire_golden.h); each type's goldens are mutated
// with tests/mutate.h and fed to that type's Decode. The properties: no
// crash or sanitizer report on any input, and decoding is canonical —
// every input that decodes re-encodes to exactly the same bytes, so no two
// byte strings stand for one signed value.
#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "tests/hex.h"
#include "tests/mutate.h"
#include "tests/wire_golden.h"

namespace sdr::golden {
namespace {

constexpr int kMutationsPerType = 20000;

template <typename T>
std::vector<Bytes> GoldenEncodings() {
  std::vector<Bytes> out;
  for (const Golden<T>& g : GoldensOf<T>()) {
    out.push_back(HexDecode(g.encoding));
  }
  return out;
}

// Every type's goldens, so a splice can graft one type's bytes onto
// another's.
template <typename... Ts>
std::vector<Bytes> AllGoldenEncodings(::testing::Types<Ts...>*) {
  std::vector<Bytes> all;
  (
      [&all] {
        for (Bytes& b : GoldenEncodings<Ts>()) {
          all.push_back(std::move(b));
        }
      }(),
      ...);
  return all;
}

template <typename T>
class WireFuzz : public ::testing::Test {};

TYPED_TEST_SUITE(WireFuzz, WireTypes);

TYPED_TEST(WireFuzz, GoldensRoundTrip) {
  for (const Bytes& b : GoldenEncodings<TypeParam>()) {
    auto decoded = TypeParam::Decode(b);
    ASSERT_TRUE(decoded.ok()) << HexEncode(b);
    EXPECT_EQ(decoded->Encode(), b);
    EXPECT_EQ(WireSize(*decoded), b.size());
  }
}

TYPED_TEST(WireFuzz, MutatedInputsDecodeCanonicallyOrNotAtAll) {
  const std::vector<Bytes> seeds = GoldenEncodings<TypeParam>();
  const std::vector<Bytes> splices =
      AllGoldenEncodings(static_cast<WireTypes*>(nullptr));
  Rng rng(0x5eed0000 + seeds[0].size());
  int accepted = 0;
  for (int i = 0; i < kMutationsPerType; ++i) {
    Bytes input = Mutate(seeds[rng.NextBounded(seeds.size())], rng, splices);
    auto decoded = TypeParam::Decode(input);
    if (!decoded.ok()) {
      continue;
    }
    ++accepted;
    ASSERT_EQ(decoded->Encode(), input) << "accepted a non-canonical input";
    ASSERT_EQ(WireSize(*decoded), input.size());
  }
  ::testing::Test::RecordProperty("accepted", accepted);
}

// ---- Hostile shapes the codec rejects --------------------------------------

TEST(WireCodec, UnknownEnumeratorsAreCorruptWhereverTheyAreNested) {
  Bytes request = ReadRequest{1, 2, SampleQuery()}.Encode();
  request[16] = static_cast<uint8_t>(QueryKind::kAvg) + 1;  // the kind byte
  EXPECT_FALSE(ReadRequest::Decode(request).ok());
  Bytes cert = SampleCert(1).Encode();
  cert[4] = static_cast<uint8_t>(Role::kAuditor) + 1;  // the role byte
  EXPECT_FALSE(Certificate::Decode(cert).ok());
  Bytes op = WriteOp::Put("k", "v").Encode();
  op[0] = static_cast<uint8_t>(WriteOp::Kind::kAppend) + 1;
  EXPECT_FALSE(WriteOp::Decode(op).ok());
  Bytes bundle = EvidenceBundle{SignatureScheme::kNull, {}, {}}.Encode();
  bundle[0] = static_cast<uint8_t>(SignatureScheme::kNull) + 1;
  EXPECT_FALSE(EvidenceBundle::Decode(bundle).ok());
}

TEST(WireCodec, PresentButEmptyTrailingListIsCorrupt) {
  // A gossip without exclusions encodes without the list; one that sends
  // an empty list would decode to the same value, so it is refused.
  Bytes gossip = TobGossip{3, {SampleCert(1)}, {}}.Encode();
  ASSERT_TRUE(TobGossip::Decode(gossip).ok());
  gossip.insert(gossip.end(), 4, 0);
  EXPECT_FALSE(TobGossip::Decode(gossip).ok());
}

}  // namespace
}  // namespace sdr::golden
