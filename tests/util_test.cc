#include <gtest/gtest.h>

#include "src/util/bytes.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/serde.h"

namespace sdr {
namespace {

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(HexEncode(b), "0001abff");
  bool ok = false;
  EXPECT_EQ(HexDecode("0001abff", &ok), b);
  EXPECT_TRUE(ok);
}

TEST(BytesTest, HexDecodeRejectsBadInput) {
  bool ok = true;
  HexDecode("abc", &ok);  // odd length
  EXPECT_FALSE(ok);
  ok = true;
  HexDecode("zz", &ok);  // non-hex
  EXPECT_FALSE(ok);
}

TEST(BytesTest, HexDecodeAcceptsUpperCase) {
  bool ok = false;
  EXPECT_EQ(HexDecode("AbFf", &ok), (Bytes{0xab, 0xff}));
  EXPECT_TRUE(ok);
}

TEST(BytesTest, ConstantTimeEquals) {
  EXPECT_TRUE(ConstantTimeEquals({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(ConstantTimeEquals({1, 2, 3}, {1, 2, 4}));
  EXPECT_FALSE(ConstantTimeEquals({1, 2}, {1, 2, 3}));
  EXPECT_TRUE(ConstantTimeEquals({}, {}));
}

TEST(BytesViewTest, ViewsAliasTheSourceWithoutCopying) {
  Bytes data = ToBytes("abcdefgh");
  BytesView view(data);
  EXPECT_EQ(view.size(), data.size());
  EXPECT_EQ(view.data(), data.data());  // a view, not a copy

  BytesView tail = view.substr(3);
  EXPECT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail.data(), data.data() + 3);
  EXPECT_EQ(tail[0], 'd');

  BytesView mid = view.substr(2, 3);
  EXPECT_EQ(mid.ToBytes(), ToBytes("cde"));

  // substr clamps instead of throwing.
  EXPECT_EQ(view.substr(100).size(), 0u);
  EXPECT_EQ(view.substr(6, 100).size(), 2u);
}

TEST(PayloadTest, SlicesShareOneBuffer) {
  Payload p = ToBytes("0123456789");
  Payload slice = p.Slice(2, 4);
  EXPECT_EQ(slice.size(), 4u);
  // Slicing aliases the parent's buffer: same allocation, offset pointer.
  EXPECT_EQ(slice.view().data(), p.view().data() + 2);
  EXPECT_EQ(slice.ToBytes(), ToBytes("2345"));

  Payload nested = slice.Slice(1, 2);
  EXPECT_EQ(nested.view().data(), p.view().data() + 3);
  EXPECT_EQ(nested.ToBytes(), ToBytes("34"));
}

TEST(PayloadTest, BufferOutlivesEveryHandleButNotTheData) {
  Payload slice;
  {
    Bytes original = ToBytes("the quick brown fox");
    Payload whole = original;  // moves a copy into shared ownership
    slice = whole.Slice(4, 5);
  }  // `original` and `whole` are gone; the shared buffer must survive
  EXPECT_EQ(slice.ToBytes(), ToBytes("quick"));
}

TEST(PayloadTest, ConvertsToViewAndReader) {
  Payload p = ToBytes("abc");
  BytesView v = p;  // implicit, used by every message dispatcher
  EXPECT_EQ(v.size(), 3u);
  Reader r(p.view());
  EXPECT_EQ(r.U8(), 'a');
}

TEST(SerdeTest, PrimitivesRoundTrip) {
  Writer w;
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.Bool(true);
  w.Double(3.25);
  w.Blob(ToBytes("hello"));
  w.Blob(std::string_view("world"));

  Reader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.Double(), 3.25);
  EXPECT_EQ(r.BlobString(), "hello");
  EXPECT_EQ(r.BlobString(), "world");
  EXPECT_TRUE(r.Done());
}

TEST(SerdeTest, TruncatedInputFailsGracefully) {
  Writer w;
  w.U64(7);
  Bytes buf = w.bytes();
  buf.resize(4);
  Reader r(buf);
  r.U64();
  EXPECT_FALSE(r.ok());
  // Subsequent reads stay failed and return zero values.
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_FALSE(r.Done());
}

TEST(SerdeTest, OversizedBlobLengthFails) {
  Writer w;
  w.U32(1000000);  // claims 1MB blob, no payload follows
  Reader r(w.bytes());
  Bytes b = r.Blob();
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(r.ok());
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(7);
  int hits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  double freq = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(freq, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(8);
  constexpr int kSamples = 50000;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    sum += rng.NextExponential(10.0);
  }
  EXPECT_NEAR(sum / kSamples, 10.0, 0.5);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(9);
  Rng child = a.Fork();
  // Child stream should not equal parent continuation.
  EXPECT_NE(child.Next(), a.Next());
}

TEST(ResultTest, ValueAndError) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);

  Result<int> bad(Error(ErrorCode::kStale, "token too old"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kStale);
  EXPECT_EQ(bad.error().ToString(), "STALE: token too old");
}

TEST(ResultTest, StatusOkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status err = Error(ErrorCode::kBadSignature, "pledge");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code(), ErrorCode::kBadSignature);
}

}  // namespace
}  // namespace sdr
