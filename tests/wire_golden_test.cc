// Pins the wire format: every wire type's encoding, and every signed
// type's signed body, must equal the hex in tests/wire_golden.h byte for
// byte. Evidence is signed over these bytes, so any change to them is a
// protocol change, never a refactoring.
#include <gtest/gtest.h>

#include "tests/hex.h"
#include "tests/wire_golden.h"

namespace sdr::golden {
namespace {

template <typename T>
class WireGolden : public ::testing::Test {};

TYPED_TEST_SUITE(WireGolden, WireTypes);

TYPED_TEST(WireGolden, EncodingAndSignedBodyArePinned) {
  for (const Golden<TypeParam>& g : GoldensOf<TypeParam>()) {
    SCOPED_TRACE(g.name);
    EXPECT_EQ(HexEncode(EncodingOf(g.value)), g.encoding);
    EXPECT_EQ(HexEncode(SignedBodyOf(g.value)), g.signed_body);
  }
}

}  // namespace
}  // namespace sdr::golden
