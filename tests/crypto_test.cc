// Validation of the from-scratch crypto substrate against published test
// vectors (FIPS 180 / RFC 4231 / RFC 8032) plus property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/crypto/ed25519.h"
#include "src/crypto/ed25519_kernels.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha2.h"
#include "src/crypto/sha_block.h"
#include "src/crypto/sha_kernels.h"
#include "src/crypto/signer.h"
#include "src/util/bytes.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "tests/crypto_oracle.h"
#include "tests/hex.h"

namespace sdr {
namespace {

TEST(Sha1Test, Fips180Vectors) {
  EXPECT_EQ(HexEncode(Sha1::Hash("")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(HexEncode(Sha1::Hash("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(HexEncode(Sha1::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionA) {
  Sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(HexEncode(h.Final()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes data = rng.NextBytes(rng.NextBounded(300));
    Sha1 h;
    size_t pos = 0;
    while (pos < data.size()) {
      size_t n = std::min<size_t>(rng.NextBounded(64) + 1, data.size() - pos);
      h.Update(data.data() + pos, n);
      pos += n;
    }
    EXPECT_EQ(h.Final(), Sha1::Hash(data));
  }
}

TEST(Sha256Test, Fips180Vectors) {
  EXPECT_EQ(HexEncode(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HexEncode(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexEncode(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(HexEncode(h.Final()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha512Test, Fips180Vectors) {
  EXPECT_EQ(HexEncode(Sha512::Hash("")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
  EXPECT_EQ(HexEncode(Sha512::Hash("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
  EXPECT_EQ(HexEncode(Sha512::Hash(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

// Digests at every padding boundary: where the 0x80 marker and the length
// field still fit in the last block (55, 111), where they spill into an
// extra block (56, 112, 119, 120), around whole blocks (63-65, 127, 128),
// and across many blocks (1400). References from an independent SHA
// implementation.
struct BoundaryDigests {
  size_t length;
  const char* sha1;
  const char* sha256;
  const char* sha512;
};

constexpr BoundaryDigests kBoundaryDigests[] = {
    {0, "da39a3ee5e6b4b0d3255bfef95601890afd80709",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
     "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"},
    {1, "5d1be7e9dda1ee8896be5b7e34a85ee16452a7b4",
     "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879",
     "365d11a1dfe610b60efa996136d37ab8afd2715b8c6bc2850dc5e6005b702bb9"
     "f59b0f306ecb2c43ee44c429967d45843524eb2f7c16aab9bde142ee268b51c6"},
    {55, "749bbefb28edc4638b28b2b9a9e03ab9a4032b90",
     "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b",
     "330eb5e81b4d722cae1e0efbf883efb180c3e346d2b3b797dafc90409583ed35"
     "af65dc2d7974a353f0c21663e196b60d3ee5a2c70c50b7b3bccdb93a5dbce6bf"},
    {56, "a5b6e9c29d201c774753ff8e7fb64931656f5e63",
     "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63",
     "1b5b63bfd5420b2dc480abce3dbdb3e19e5f9d4fabffba7764883937eaae878a"
     "55362c938c141712c44c3076c3fabb2c60814c2994c311c33049a8d6de2a8898"},
    {63, "d1a454409359fc372b4d22b3cea6488d6ba1be00",
     "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076",
     "b16f76c30db64b5ee1ef166d2d37e13ff6cee9fd88bae9ba283cd58e0a2133b2"
     "20a76db56279406461f84ce2cffd1d116d38fd9f38fc5df18770a987ff695499"},
    {64, "39a0d8b645ad85f1f976731ed112ac9455e28b78",
     "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd",
     "4c7aba3659929c4fd87604c532a3b5f174d0626b2d661dbbbfac76c97a49a5a7"
     "789d2c68324c754f66bf629fa72054f334feaad8b1cf4c885ae03a1e634afc18"},
    {65, "d0c96e18890114a14716e9686528d2e3fdba8d9e",
     "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0",
     "31ad8ce60482e91ec7f83455c280f2dbb4940a400795ae90815bc86891210ebe"
     "07b51995eb2d123d6a55a79a998e20cc07716aea7848f6c955b4a4bf14ad0b0a"},
    {111, "b7b42d19ae6be209c36efe0c5dfe5bde4d306c43",
     "dd1413178fb627f9abbc041ffe39c44aa7aaa0e2e6d2ca5c4528ac7073a2da45",
     "da780d8338a8a920ceb6892cb4ecbb0cc0c66956269aadd5dd0f48790a00857b"
     "d975890f3b2955a317738cc7a770820c29f922ffbc22020f1909d594cc987d1b"},
    {112, "11e920cd4ed45c60c05a916e48a942f9e39c770b",
     "a65c92dac124062d0ab951a42773cb04fc98d1d4bf8897b176f8cff3509d379e",
     "053182f7fa4e59f8636e415a77ed4fdc650f0a43834c9d35adf899599c3ab9c4"
     "153f02ff50bd01888060cd36a6fa12d9db242fc35164c80135613514186d5843"},
    {119, "562ecf8a430f8e1056e3619bae33628e9a1d0a4e",
     "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe",
     "c6203c98db894a187e332570d8b0c317766be115afc7afa530e00ef42f2aa749"
     "2a7a4bba9b81762cf2a635c9bd22bde8fd85868d1214e48ae057cd7b69fdd7ff"},
    {120, "353f6d2bf0e91aa91b74a2e0b3f297510f7d825f",
     "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656",
     "f138c42e1f58da8b1e7a14810a424cbe8b1baa4976b7853f4c9a856609fea684"
     "a6e9ee070abe81b88f3289b6711687eb751da453942e4eb6e5609212e8b08739"},
    {127, "bebc42d2d3d1e5fb8ad8895c2dcef2d68a6c279a",
     "192409cd280e14b743642ad1343fbd3e82d9305de72c078117745a679210cc3d",
     "a7a75593826fd37d4e60f6101eabb9f8ab1cf4d5319ebc805266d5da8deb5097"
     "de1a235fc5d9d3d73c50ac100ffc75089fb454674ab61232091bd19cbdc67396"},
    {128, "0060f2a7e34b6e4d459f560197ef93243732a400",
     "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356",
     "df007a08f3aaae47e0c92ef840ecd43645ae6098c819f2a4a66174ef1cd49e5c"
     "6dfccf0616895e570b7564af641de5863dff9f89c752913d30cf0ecf678e1635"},
    {1400, "230bca93b2bc876f1e893a477bc6e29b65f8cbbc",
     "5af8f01f9fb8310f3815941a0629b40b45dd0b15f380640d02fc3f69073efd8b",
     "939067d9fbd4a863727b37fcb6377214d2e70d6a9429ed69d652f86a9f86290d"
     "563b9e27b88ca7197ee52e413bbbcedba00bb3708ad18ed36faab62fde4168c2"},
};

Bytes BoundaryMessage(size_t n) {
  Bytes m(n);
  for (size_t i = 0; i < n; ++i) {
    m[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  return m;
}

// The digest of m fed one byte per Update.
template <typename Hash>
Bytes BytewiseDigest(const Bytes& m) {
  Hash h;
  for (uint8_t byte : m) {
    h.Update(&byte, 1);
  }
  return h.Final();
}

TEST(ShaBoundaryTest, DigestsAtPaddingBoundaries) {
  for (const BoundaryDigests& want : kBoundaryDigests) {
    Bytes m = BoundaryMessage(want.length);
    EXPECT_EQ(HexEncode(Sha1::Hash(m)), want.sha1) << "len " << want.length;
    EXPECT_EQ(HexEncode(Sha256::Hash(m)), want.sha256) << "len " << want.length;
    EXPECT_EQ(HexEncode(Sha512::Hash(m)), want.sha512) << "len " << want.length;
  }
}

TEST(ShaBoundaryTest, BytewiseUpdateMatchesOneShot) {
  for (const BoundaryDigests& want : kBoundaryDigests) {
    Bytes m = BoundaryMessage(want.length);
    EXPECT_EQ(BytewiseDigest<Sha1>(m), Sha1::Hash(m)) << "len " << want.length;
    EXPECT_EQ(BytewiseDigest<Sha256>(m), Sha256::Hash(m))
        << "len " << want.length;
    EXPECT_EQ(BytewiseDigest<Sha512>(m), Sha512::Hash(m))
        << "len " << want.length;
  }
}

TEST(Sha512Test, DerivedRoundConstantsSpotCheck) {
  // First and last round constants, straight from FIPS 180-2.
  const uint64_t* k = Sha512RoundConstants();
  EXPECT_EQ(k[0], 0x428a2f98d728ae22ULL);
  EXPECT_EQ(k[1], 0x7137449123ef65cdULL);
  EXPECT_EQ(k[79], 0x6c44198c4a475817ULL);
}

TEST(HmacTest, Rfc4231Vectors) {
  // Test case 1.
  Bytes key1(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha256(key1, ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Test case 2.
  EXPECT_EQ(HexEncode(HmacSha256(ToBytes("Jefe"),
                                 ToBytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashed) {
  Bytes long_key(200, 0x61);
  Bytes m = ToBytes("msg");
  // Must not crash and must differ from short-key MACs.
  Bytes mac = HmacSha256(long_key, m);
  EXPECT_EQ(mac.size(), 32u);
  EXPECT_NE(mac, HmacSha256(ToBytes("a"), m));
}

// ---------------------------------------------------------------------------
// SHA-1 and SHA-256 compression kernels. The portable kernels are the
// oracle: the SHA-NI ones must agree with them on every length, on runs of
// many blocks and on any split into Updates, and both must reproduce the
// published vectors. The SHA-NI cases skip on a CPU without SHA-NI.
// ---------------------------------------------------------------------------

using sha_internal::Sha1Kernel;
using sha_internal::Sha256Kernel;

// The digest of m through one kernel, fed as Updates that end at each of
// cuts (ascending, within m), with sha_block.h's buffering and padding.
// Sha1Kernel and Sha256Kernel are the same pointer type.
template <size_t kWords>
Bytes KernelDigest(Sha1Kernel kernel, const uint32_t (&iv)[kWords],
                   const Bytes& m, const std::vector<size_t>& cuts = {}) {
  uint32_t state[kWords];
  std::copy(iv, iv + kWords, state);
  uint8_t buffer[64];
  size_t buffer_len = 0;
  auto compress = [&](const uint8_t* blocks, size_t n) {
    kernel(state, blocks, n);
  };
  size_t pos = 0;
  for (size_t cut : cuts) {
    sha_internal::Absorb(buffer, buffer_len, m.data() + pos, cut - pos,
                         compress);
    pos = cut;
  }
  sha_internal::Absorb(buffer, buffer_len, m.data() + pos, m.size() - pos,
                       compress);
  sha_internal::Pad<8>(buffer, buffer_len, m.size(), compress);
  Bytes digest(4 * kWords);
  for (size_t i = 0; i < kWords; ++i) {
    for (size_t b = 0; b < 4; ++b) {
      digest[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return digest;
}

Bytes Sha1With(Sha1Kernel kernel, const Bytes& m,
               const std::vector<size_t>& cuts = {}) {
  return KernelDigest(kernel, sha_internal::kSha1Init, m, cuts);
}

Bytes Sha256With(Sha256Kernel kernel, const Bytes& m,
                 const std::vector<size_t>& cuts = {}) {
  return KernelDigest(kernel, sha_internal::kSha256Init, m, cuts);
}

// RFC 2104 HMAC-SHA256 through one kernel.
Bytes HmacSha256With(Sha256Kernel kernel, Bytes key, const Bytes& m) {
  if (key.size() > 64) {
    key = Sha256With(kernel, key);
  }
  key.resize(64, 0);
  Bytes inner(key), outer(key);
  for (size_t i = 0; i < 64; ++i) {
    inner[i] ^= 0x36;
    outer[i] ^= 0x5c;
  }
  inner.insert(inner.end(), m.begin(), m.end());
  Bytes inner_digest = Sha256With(kernel, inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return Sha256With(kernel, outer);
}

// Random ascending cut points within [0, len].
std::vector<size_t> RandomCuts(Rng& rng, size_t len) {
  std::vector<size_t> cuts(rng.NextBounded(5));
  for (size_t& cut : cuts) {
    cut = rng.NextBounded(len + 1);
  }
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

struct KernelPair {
  const char* name;
  Sha1Kernel sha1;
  Sha256Kernel sha256;
};

const KernelPair kPortableKernels = {"portable", sha_internal::Sha1Portable,
                                     sha_internal::Sha256Portable};
#ifdef SDR_SHA_NI
const KernelPair kNiKernels = {"sha_ni", sha_internal::Sha1Ni,
                               sha_internal::Sha256Ni};
#endif

// The SHA-NI kernels when this CPU can run them, else null (and the
// calling test skips).
const KernelPair* NiKernels() {
#ifdef SDR_SHA_NI
  if (sha_internal::CpuHasShaNi()) {
    return &kNiKernels;
  }
#endif
  return nullptr;
}

class ShaKernelTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "portable") {
      k_ = &kPortableKernels;
    } else if ((k_ = NiKernels()) == nullptr) {
      GTEST_SKIP() << "this CPU (or build) has no SHA-NI";
    }
  }
  const KernelPair* k_ = nullptr;
};

TEST_P(ShaKernelTest, Fips180Vectors) {
  EXPECT_EQ(HexEncode(Sha1With(k_->sha1, ToBytes(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(HexEncode(Sha1With(k_->sha1, ToBytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(HexEncode(Sha1With(
                k_->sha1,
                ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopn"
                        "opq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(HexEncode(Sha256With(k_->sha256, ToBytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HexEncode(Sha256With(k_->sha256, ToBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexEncode(Sha256With(
                k_->sha256,
                ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopn"
                        "opq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  const Bytes million_a(1000000, 'a');
  EXPECT_EQ(HexEncode(Sha1With(k_->sha1, million_a)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
  EXPECT_EQ(HexEncode(Sha256With(k_->sha256, million_a)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(ShaKernelTest, PaddingBoundaryVectors) {
  for (const BoundaryDigests& want : kBoundaryDigests) {
    Bytes m = BoundaryMessage(want.length);
    EXPECT_EQ(HexEncode(Sha1With(k_->sha1, m)), want.sha1)
        << "len " << want.length;
    EXPECT_EQ(HexEncode(Sha256With(k_->sha256, m)), want.sha256)
        << "len " << want.length;
  }
}

TEST_P(ShaKernelTest, Rfc4231Vectors) {
  // Test cases 1, 2 and 6 (a 131-byte key, hashed first).
  EXPECT_EQ(HexEncode(HmacSha256With(k_->sha256, Bytes(20, 0x0b),
                                     ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(HexEncode(HmacSha256With(k_->sha256, ToBytes("Jefe"),
                                     ToBytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(
      HexEncode(HmacSha256With(
          k_->sha256, Bytes(131, 0xaa),
          ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

INSTANTIATE_TEST_SUITE_P(Kernels, ShaKernelTest,
                         ::testing::Values("portable", "sha_ni"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(ShaKernelOracleTest, NiMatchesPortableOnEveryLength) {
  const KernelPair* ni = NiKernels();
  if (ni == nullptr) {
    GTEST_SKIP() << "this CPU (or build) has no SHA-NI";
  }
  Rng rng(21);
  const Bytes data = rng.NextBytes(1500);
  for (size_t len = 0; len <= data.size(); ++len) {
    const Bytes m(data.begin(), data.begin() + static_cast<long>(len));
    const Bytes sha1 = Sha1With(sha_internal::Sha1Portable, m);
    const Bytes sha256 = Sha256With(sha_internal::Sha256Portable, m);
    ASSERT_EQ(Sha1With(ni->sha1, m), sha1) << "len " << len;
    ASSERT_EQ(Sha256With(ni->sha256, m), sha256) << "len " << len;
    const std::vector<size_t> cuts = RandomCuts(rng, len);
    ASSERT_EQ(Sha1With(ni->sha1, m, cuts), sha1) << "split len " << len;
    ASSERT_EQ(Sha256With(ni->sha256, m, cuts), sha256) << "split len " << len;
  }
}

TEST(ShaKernelOracleTest, NiRunOfBlocksMatchesPortableBlockByBlock) {
  const KernelPair* ni = NiKernels();
  if (ni == nullptr) {
    GTEST_SKIP() << "this CPU (or build) has no SHA-NI";
  }
  Rng rng(22);
  for (size_t n_blocks = 1; n_blocks <= 40; ++n_blocks) {
    const Bytes data = rng.NextBytes(64 * n_blocks);
    uint32_t portable1[5], run1[5], portable256[8], run256[8];
    for (int i = 0; i < 5; ++i) {
      portable1[i] = run1[i] = static_cast<uint32_t>(rng.Next());
    }
    for (int i = 0; i < 8; ++i) {
      portable256[i] = run256[i] = static_cast<uint32_t>(rng.Next());
    }
    for (size_t b = 0; b < n_blocks; ++b) {
      sha_internal::Sha1Portable(portable1, data.data() + 64 * b, 1);
      sha_internal::Sha256Portable(portable256, data.data() + 64 * b, 1);
    }
    ni->sha1(run1, data.data(), n_blocks);
    ni->sha256(run256, data.data(), n_blocks);
    EXPECT_TRUE(std::equal(run1, run1 + 5, portable1)) << n_blocks;
    EXPECT_TRUE(std::equal(run256, run256 + 8, portable256)) << n_blocks;
  }
}

// Sha1 and Sha256 hash through whichever kernel the dispatcher chose; on
// every host their digests must be the portable kernel's, split or not.
TEST(ShaKernelOracleTest, DispatchedHashMatchesPortable) {
  Rng rng(23);
  const Bytes data = rng.NextBytes(1500);
  for (size_t len = 0; len <= data.size(); len += 7) {
    const Bytes m(data.begin(), data.begin() + static_cast<long>(len));
    Sha1 sha1;
    Sha256 sha256;
    size_t pos = 0;
    for (size_t cut : RandomCuts(rng, len)) {
      sha1.Update(m.data() + pos, cut - pos);
      sha256.Update(m.data() + pos, cut - pos);
      pos = cut;
    }
    sha1.Update(m.data() + pos, len - pos);
    sha256.Update(m.data() + pos, len - pos);
    ASSERT_EQ(sha1.Final(), Sha1With(sha_internal::Sha1Portable, m))
        << "len " << len;
    ASSERT_EQ(sha256.Final(), Sha256With(sha_internal::Sha256Portable, m))
        << "len " << len;
  }
}

// Logs the kernels the dispatcher chose (CI checks the line against
// /proc/cpuinfo) and holds the rule: SHA-NI exactly when the CPU has it.
TEST(ShaDispatchTest, ChoosesShaNiExactlyWhenTheCpuHasIt) {
  const bool ni = sha_internal::CpuHasShaNi();
  const bool sha1_ni =
      sha_internal::Sha1Compress() != &sha_internal::Sha1Portable;
  const bool sha256_ni =
      sha_internal::Sha256Compress() != &sha_internal::Sha256Portable;
  std::cout << "SHA kernels: sha1=" << (sha1_ni ? "sha_ni" : "portable")
            << " sha256=" << (sha256_ni ? "sha_ni" : "portable")
            << " (cpuid sha_ni=" << (ni ? "yes" : "no") << ")" << std::endl;
  EXPECT_EQ(sha1_ni, ni);
  EXPECT_EQ(sha256_ni, ni);
}

struct Rfc8032Vector {
  const char* seed_hex;
  const char* public_hex;
  const char* message_hex;
  const char* signature_hex;
};

class Ed25519VectorTest : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Ed25519VectorTest, MatchesRfc8032) {
  const auto& v = GetParam();
  Bytes seed = HexDecode(v.seed_hex);
  Bytes pub = HexDecode(v.public_hex);
  Bytes msg = HexDecode(v.message_hex);
  Bytes sig = HexDecode(v.signature_hex);

  // The vectors must hold bit-for-bit through both implementations.
  EXPECT_EQ(Ed25519PublicKey(seed), pub);
  EXPECT_EQ(Ed25519Sign(seed, msg), sig);
  EXPECT_TRUE(Ed25519Verify(pub, msg, sig));
  EXPECT_EQ(crypto_oracle::PublicKeyNaive(seed), pub);
  EXPECT_EQ(crypto_oracle::SignNaive(seed, msg), sig);
  EXPECT_TRUE(crypto_oracle::VerifyNaive(pub, msg, sig));
}

INSTANTIATE_TEST_SUITE_P(
    Rfc8032, Ed25519VectorTest,
    ::testing::Values(
        Rfc8032Vector{
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
        Rfc8032Vector{
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
        Rfc8032Vector{
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"}));

TEST(Ed25519Test, RoundTripRandomKeysAndMessages) {
  Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    Bytes seed = rng.NextBytes(kEd25519SeedSize);
    Bytes pub = Ed25519PublicKey(seed);
    Bytes msg = rng.NextBytes(rng.NextBounded(100));
    Bytes sig = Ed25519Sign(seed, msg);
    EXPECT_TRUE(Ed25519Verify(pub, msg, sig));
  }
}

TEST(Ed25519Test, TamperedMessageFails) {
  Rng rng(7);
  Bytes seed = rng.NextBytes(kEd25519SeedSize);
  Bytes pub = Ed25519PublicKey(seed);
  Bytes msg = ToBytes("the content version is 17");
  Bytes sig = Ed25519Sign(seed, msg);
  Bytes tampered = msg;
  tampered[4] ^= 1;
  EXPECT_FALSE(Ed25519Verify(pub, tampered, sig));
}

TEST(Ed25519Test, TamperedSignatureFails) {
  Rng rng(8);
  Bytes seed = rng.NextBytes(kEd25519SeedSize);
  Bytes pub = Ed25519PublicKey(seed);
  Bytes msg = ToBytes("pledge");
  Bytes sig = Ed25519Sign(seed, msg);
  for (size_t i = 0; i < sig.size(); i += 17) {
    Bytes bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(Ed25519Verify(pub, msg, bad)) << "byte " << i;
  }
}

TEST(Ed25519Test, WrongKeyFails) {
  Rng rng(9);
  Bytes seed1 = rng.NextBytes(kEd25519SeedSize);
  Bytes seed2 = rng.NextBytes(kEd25519SeedSize);
  Bytes msg = ToBytes("m");
  Bytes sig = Ed25519Sign(seed1, msg);
  EXPECT_FALSE(Ed25519Verify(Ed25519PublicKey(seed2), msg, sig));
}

TEST(Ed25519Test, NonCanonicalScalarRejected) {
  Rng rng(10);
  Bytes seed = rng.NextBytes(kEd25519SeedSize);
  Bytes pub = Ed25519PublicKey(seed);
  Bytes msg = ToBytes("m");
  Bytes sig = Ed25519Sign(seed, msg);
  // Force S >= L by setting high bits of the scalar half.
  Bytes bad = sig;
  bad[63] |= 0xf0;
  EXPECT_FALSE(Ed25519Verify(pub, msg, bad));
}

TEST(Ed25519Test, FastPathMatchesNaiveOnRandomInputs) {
  // The precomputed-table fixed-base multiplication and the Straus/Shamir
  // verify loop must agree with the oracle's plain double-and-add ladders
  // on random scalars, both for the produced bytes and for the verdicts.
  Rng rng(20);
  for (int trial = 0; trial < 12; ++trial) {
    Bytes seed = rng.NextBytes(kEd25519SeedSize);
    Bytes msg = rng.NextBytes(rng.NextBounded(200));

    Bytes pub = Ed25519PublicKey(seed);
    Bytes sig = Ed25519Sign(seed, msg);
    EXPECT_EQ(pub, crypto_oracle::PublicKeyNaive(seed)) << "trial " << trial;
    EXPECT_EQ(sig, crypto_oracle::SignNaive(seed, msg)) << "trial " << trial;

    Bytes bad_sig = sig;
    bad_sig[trial % 32] ^= 0x20;
    EXPECT_TRUE(Ed25519Verify(pub, msg, sig)) << "trial " << trial;
    EXPECT_TRUE(crypto_oracle::VerifyNaive(pub, msg, sig)) << "trial " << trial;
    EXPECT_FALSE(Ed25519Verify(pub, msg, bad_sig)) << "trial " << trial;
    EXPECT_FALSE(crypto_oracle::VerifyNaive(pub, msg, bad_sig))
        << "trial " << trial;
  }
}

TEST(Ed25519Test, ExpandedKeySignsIdentically) {
  Rng rng(21);
  Bytes seed = rng.NextBytes(kEd25519SeedSize);
  Ed25519ExpandedKey key = Ed25519ExpandKey(seed);
  EXPECT_EQ(key.public_key, Ed25519PublicKey(seed));
  for (int trial = 0; trial < 4; ++trial) {
    Bytes msg = rng.NextBytes(rng.NextBounded(128));
    EXPECT_EQ(Ed25519SignExpanded(key, msg), Ed25519Sign(seed, msg));
  }
}

// ---- Kernel oracles ---------------------------------------------------------
// Each fast Ed25519 kernel against an unoptimized one: the safegcd
// inversion against Fermat's a^(p-2), the decompression power's addition
// chain against the generic square-and-multiply, and the Barrett scalar
// reductions against binary long division.

using ed25519_internal::Fe;

constexpr uint64_t kLimb51 = (1ULL << 51) - 1;

Bytes FeBytes(const Fe& a) {
  Bytes out(32);
  ed25519_internal::FeToBytes(out.data(), a);
  return out;
}

TEST(Ed25519KernelTest, SafegcdInverseMatchesFermat) {
  const uint64_t m = kLimb51;
  std::vector<Fe> cases = {
      Fe{{0, 0, 0, 0, 0}},                  // 0
      Fe{{1, 0, 0, 0, 0}},                  // 1
      Fe{{m - 19, m, m, m, m}},             // p - 1
      Fe{{m - 18, m, m, m, m}},             // p
      Fe{{m - 17, m, m, m, m}},             // p + 1
      Fe{{m, m, m, m, m}},                  // 2^255 - 1
      Fe{{2 * (m - 18), 2 * m, 2 * m, 2 * m, 2 * m}},  // 2p, unreduced limbs
      Fe{{1ULL << 51, 0, 0, 0, 0}},         // 2^51 held in limb 0
  };
  // The largest limbs a kernel accepts.
  cases.push_back(Fe{{(1ULL << 54) - 1, (1ULL << 54) - 1, (1ULL << 54) - 1,
                      (1ULL << 54) - 1, (1ULL << 54) - 1}});
  Rng rng(30);
  for (int i = 0; i < 1000; ++i) {
    // Half canonical-width limbs, half non-canonical ones above 2^51.
    const uint64_t width = i % 2 == 0 ? 51 : 54;
    Fe a;
    for (uint64_t& limb : a.v) {
      limb = rng.Next() >> (64 - width);
    }
    cases.push_back(a);
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(FeBytes(ed25519_internal::FeInvertSafegcd(cases[i])),
              FeBytes(crypto_oracle::FeInvertFermat(cases[i])))
        << "case " << i << ": " << HexEncode(FeBytes(cases[i]));
  }
  // 0 has no inverse; both kernels return 0 for it, however it is written.
  for (size_t i : {0, 3, 6}) {
    EXPECT_EQ(FeBytes(ed25519_internal::FeInvertSafegcd(cases[i])),
              Bytes(32, 0));
  }
}

// The decompression power z^(2^252 - 3): ref10's addition chain against
// the generic square-and-multiply over the same exponent.
TEST(Ed25519KernelTest, Pow2523ChainMatchesGenericPow) {
  static const uint8_t kP58[32] = {
      0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f};
  const uint64_t m = kLimb51;
  std::vector<Fe> cases = {
      Fe{{0, 0, 0, 0, 0}},       Fe{{1, 0, 0, 0, 0}},
      Fe{{2, 0, 0, 0, 0}},       Fe{{m - 19, m, m, m, m}},  // p - 1
      Fe{{m - 18, m, m, m, m}},  // p
      Fe{{(1ULL << 54) - 1, (1ULL << 54) - 1, (1ULL << 54) - 1,
          (1ULL << 54) - 1, (1ULL << 54) - 1}},
  };
  Rng rng(33);
  for (int i = 0; i < 200; ++i) {
    const uint64_t width = i % 2 == 0 ? 51 : 54;
    Fe a;
    for (uint64_t& limb : a.v) {
      limb = rng.Next() >> (64 - width);
    }
    cases.push_back(a);
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(FeBytes(ed25519_internal::FePow2523(cases[i])),
              FeBytes(ed25519_internal::FePow(cases[i], kP58)))
        << "case " << i << ": " << HexEncode(FeBytes(cases[i]));
  }
}

// L, little-endian.
const Bytes& OrderLBytes() {
  static const Bytes l = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                          0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                          0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                          0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};
  return l;
}

// q * L + r for 32-byte little-endian q and r, as 64 bytes.
Bytes TimesLPlus(const Bytes& q, const Bytes& r) {
  std::vector<unsigned> columns(64, 0);
  for (int i = 0; i < 32; ++i) {
    columns[i] += r[i];
    for (int j = 0; j < 32; ++j) {
      columns[i + j] += q[i] * OrderLBytes()[j];
    }
  }
  Bytes out(64);
  unsigned carry = 0;
  for (int i = 0; i < 64; ++i) {
    const unsigned cur = columns[i] + carry;
    out[i] = static_cast<uint8_t>(cur);
    carry = cur >> 8;
  }
  return out;
}

// L + delta as 32 bytes, for small delta in [-1, 1].
Bytes OrderLPlus(int delta) {
  Bytes l = OrderLBytes();
  l[0] = static_cast<uint8_t>(l[0] + delta);  // 0xed +- 1: no carry
  return l;
}

TEST(Ed25519KernelTest, BarrettReductionMatchesLongDivision) {
  std::vector<Bytes> inputs = {
      Bytes(),          Bytes(32, 0),     Bytes(64, 0),    OrderLPlus(-1),
      OrderLPlus(0),    OrderLPlus(1),    Bytes(32, 0xff), Bytes(64, 0xff),
  };
  Rng rng(31);
  for (int i = 0; i < 400; ++i) {
    inputs.push_back(rng.NextBytes(32));
    inputs.push_back(rng.NextBytes(64));
    inputs.push_back(rng.NextBytes(rng.NextBounded(65)));
    // Multiples of L and the largest remainders, where Barrett's quotient
    // estimate is tightest.
    const Bytes q = rng.NextBytes(32);
    inputs.push_back(TimesLPlus(q, Bytes(32, 0)));
    inputs.push_back(TimesLPlus(q, OrderLPlus(-1)));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    uint8_t fast[32], naive[32];
    ed25519_internal::ScReduceBytesBarrett(fast, inputs[i].data(),
                                           inputs[i].size());
    crypto_oracle::ScReduceBytesNaive(naive, inputs[i].data(),
                                      inputs[i].size());
    EXPECT_EQ(Bytes(fast, fast + 32), Bytes(naive, naive + 32))
        << "input " << i << ": " << HexEncode(inputs[i]);
  }
}

TEST(Ed25519KernelTest, BarrettMulAddMatchesLongDivision) {
  const Bytes zero(32, 0), ones(32, 0xff);
  std::vector<std::vector<Bytes>> cases = {
      {zero, zero, zero},
      {ones, ones, ones},  // the largest a*b + c, just under 2^512
      {OrderLPlus(-1), OrderLPlus(-1), OrderLPlus(-1)},
      {OrderLPlus(0), ones, OrderLPlus(0)},
      {ones, zero, OrderLPlus(1)},
  };
  Rng rng(32);
  for (int i = 0; i < 400; ++i) {
    cases.push_back({rng.NextBytes(32), rng.NextBytes(32), rng.NextBytes(32)});
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::vector<Bytes>& c = cases[i];
    uint8_t fast[32], naive[32];
    ed25519_internal::ScMulAddBarrett(fast, c[0].data(), c[1].data(),
                                      c[2].data());
    crypto_oracle::ScMulAddNaive(naive, c[0].data(), c[1].data(),
                                 c[2].data());
    EXPECT_EQ(Bytes(fast, fast + 32), Bytes(naive, naive + 32))
        << "case " << i << ": " << HexEncode(c[0]) << " * " << HexEncode(c[1])
        << " + " << HexEncode(c[2]);
  }
}

// The oracle's verdict, after checking that the plain verify and the
// prepared-key verify agree with it.
bool AgreedVerdict(const Bytes& pub, const Bytes& msg, const Bytes& sig) {
  std::shared_ptr<const Ed25519PreparedKey> prepared = Ed25519PrepareKey(pub);
  const bool naive = crypto_oracle::VerifyNaive(pub, msg, sig);
  EXPECT_EQ(Ed25519Verify(pub, msg, sig), naive);
  EXPECT_EQ(prepared != nullptr && Ed25519VerifyPrepared(*prepared, msg, sig),
            naive)
      << "prepared";
  return naive;
}

// A little-endian 32-byte field element or scalar with value v.
Bytes Le32(uint64_t v) {
  Bytes b(32, 0);
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return b;
}

TEST(Ed25519PreparedTest, AgreesOnValidAndTamperedSignatures) {
  Rng rng(22);
  for (int trial = 0; trial < 6; ++trial) {
    Bytes seed = rng.NextBytes(kEd25519SeedSize);
    Bytes pub = Ed25519PublicKey(seed);
    Bytes msg = rng.NextBytes(rng.NextBounded(200));
    Bytes sig = Ed25519Sign(seed, msg);
    EXPECT_TRUE(AgreedVerdict(pub, msg, sig)) << "trial " << trial;

    Bytes bad_r = sig;
    bad_r[trial] ^= 0x08;
    EXPECT_FALSE(AgreedVerdict(pub, msg, bad_r)) << "R, trial " << trial;
    Bytes bad_s = sig;
    bad_s[32 + trial] ^= 0x08;  // low bytes: S stays canonical
    EXPECT_FALSE(AgreedVerdict(pub, msg, bad_s)) << "S, trial " << trial;
    Bytes bad_msg = msg;
    bad_msg.push_back(static_cast<uint8_t>(trial));
    EXPECT_FALSE(AgreedVerdict(pub, bad_msg, sig)) << "msg, trial " << trial;

    // S + L names the same scalar but is not canonical: rejected.
    Bytes s_plus_l = sig;
    unsigned carry = 0;
    for (int i = 0; i < 32; ++i) {
      unsigned sum = sig[32 + i] + OrderLBytes()[i] + carry;
      s_plus_l[32 + i] = static_cast<uint8_t>(sum);
      carry = sum >> 8;
    }
    EXPECT_FALSE(AgreedVerdict(pub, msg, s_plus_l)) << "S+L, trial " << trial;
  }
}

TEST(Ed25519PreparedTest, AgreesOnSmallOrderAndNonCanonicalPoints) {
  const Bytes identity = Le32(1);  // y = 1
  Bytes identity_noncanonical = Le32(0);  // y = p + 1
  identity_noncanonical[0] = 0xee;
  for (int i = 1; i < 32; ++i) {
    identity_noncanonical[i] = 0xff;
  }
  identity_noncanonical[31] = 0x7f;
  Bytes order_two = identity_noncanonical;  // y = p - 1, the point (0, -1)
  order_two[0] = 0xec;

  // With A the identity, [S]B - [k]A == R holds for S = 0 and R the
  // identity under either encoding of R, whatever the message.
  for (const Bytes& r : {identity, identity_noncanonical}) {
    Bytes sig = r;
    sig.resize(kEd25519SignatureSize, 0);
    EXPECT_TRUE(AgreedVerdict(identity, ToBytes("any"), sig));
  }
  // With A of order two the equation holds exactly when k is even, so the
  // verdict varies with the message; every path must track it.
  std::set<bool> seen;
  for (int i = 0; i < 16; ++i) {
    Bytes sig = identity;
    sig.resize(kEd25519SignatureSize, 0);
    seen.insert(AgreedVerdict(
        order_two, ToBytes(std::string("m").append(std::to_string(i))), sig));
  }
  EXPECT_EQ(seen.size(), 2u);
  // A small-order R under a real key is rejected.
  Rng rng(28);
  Bytes seed = rng.NextBytes(kEd25519SeedSize);
  const Bytes real_pub = Ed25519PublicKey(seed);
  const Bytes real_sig = Ed25519Sign(seed, ToBytes("m"));
  Bytes sig = real_sig;
  std::copy(order_two.begin(), order_two.end(), sig.begin());
  EXPECT_FALSE(AgreedVerdict(real_pub, ToBytes("m"), sig));

  // Every R whose y lies in [p, 2^255), with either sign bit. Decoding
  // reduces y mod p, so these name points with y in [0, 18] or nothing;
  // the fast paths compare R's encoding without decoding it. With S = 0,
  // [S]B - [k]A is the identity under the identity key, and one of the
  // order-four points (+-sqrt(-1), 0) under a key of order four when k is
  // odd: y = p names both of those, one per sign bit.
  const Bytes order_four = Le32(0);
  int accepted_identity = 0, accepted_order_four = 0;
  for (int j = 0; j < 19; ++j) {
    for (uint8_t sign : {0x00, 0x80}) {
      Bytes r = identity_noncanonical;  // y = p + 1
      r[0] = static_cast<uint8_t>(0xed + j);  // y = p + j
      r[31] |= sign;
      for (int m = 0; m < 4; ++m) {
        const Bytes msg = ToBytes(std::string("m").append(std::to_string(m)));
        Bytes zero_s = r;
        zero_s.resize(kEd25519SignatureSize, 0);
        const bool identity_ok = AgreedVerdict(identity, msg, zero_s);
        EXPECT_EQ(identity_ok, j == 1 && sign == 0) << "y = p + " << j;
        accepted_identity += identity_ok;
        const bool order_four_ok = AgreedVerdict(order_four, msg, zero_s);
        EXPECT_TRUE(!order_four_ok || j == 0 || j == 1) << "y = p + " << j;
        accepted_order_four += order_four_ok;
      }
      Bytes real_s = real_sig;
      std::copy(r.begin(), r.end(), real_s.begin());
      EXPECT_FALSE(AgreedVerdict(real_pub, ToBytes("m"), real_s))
          << "y = p + " << j;
    }
  }
  EXPECT_EQ(accepted_identity, 4);
  EXPECT_GT(accepted_order_four, 0);
}

TEST(Ed25519PreparedTest, UndecodableKeysPrepareNothing) {
  Rng rng(29);
  Bytes seed = rng.NextBytes(kEd25519SeedSize);
  Bytes sig = Ed25519Sign(seed, ToBytes("m"));
  EXPECT_EQ(Ed25519PrepareKey(Bytes(16, 1)), nullptr);
  // Some small y has no x on the curve; find one.
  int undecodable = 0;
  for (uint64_t y = 2; y < 40; ++y) {
    if (Ed25519PrepareKey(Le32(y)) == nullptr) {
      ++undecodable;
      EXPECT_FALSE(AgreedVerdict(Le32(y), ToBytes("m"), sig)) << "y=" << y;
    }
  }
  EXPECT_GT(undecodable, 0);
}

// Signed triples under distinct keys, for the batch tests.
std::vector<VerifyItem> MakeItems(size_t n, Rng& rng) {
  std::vector<VerifyItem> items(n);
  for (size_t i = 0; i < n; ++i) {
    Bytes seed = rng.NextBytes(kEd25519SeedSize);
    items[i].public_key = Ed25519PublicKey(seed);
    items[i].message = rng.NextBytes(64 + i);
    items[i].signature = Ed25519Sign(seed, items[i].message);
  }
  return items;
}

// VerifyBatch on a fresh cache, without and with a worker pool; both must
// give the same verdicts.
std::vector<bool> FreshBatch(const std::vector<VerifyItem>& items) {
  VerifyCache serial;
  std::vector<bool> out = serial.VerifyBatch(SignatureScheme::kEd25519, items);
  WorkerPool pool(3);
  VerifyCache parallel;
  EXPECT_EQ(parallel.VerifyBatch(SignatureScheme::kEd25519, items, &pool),
            out);
  return out;
}

TEST(VerifyCacheBatchTest, EmptyAndSingleton) {
  Rng rng(22);
  EXPECT_TRUE(FreshBatch({}).empty());
  auto items = MakeItems(1, rng);
  EXPECT_EQ(FreshBatch(items), std::vector<bool>{true});
  items[0].signature[5] ^= 1;
  EXPECT_EQ(FreshBatch(items), std::vector<bool>{false});
}

TEST(VerifyCacheBatchTest, AllGood) {
  Rng rng(23);
  std::vector<bool> ok = FreshBatch(MakeItems(10, rng));
  EXPECT_EQ(ok, std::vector<bool>(10, true));
}

TEST(VerifyCacheBatchTest, SingleCulpritIdentified) {
  // One forged signature flips exactly its own verdict.
  Rng rng(24);
  for (size_t culprit : {size_t{0}, size_t{4}, size_t{8}}) {
    auto items = MakeItems(9, rng);
    items[culprit].signature[10] ^= 0x04;
    std::vector<bool> ok = FreshBatch(items);
    for (size_t i = 0; i < ok.size(); ++i) {
      EXPECT_EQ(ok[i], i != culprit) << "culprit " << culprit << " item " << i;
    }
  }
}

TEST(VerifyCacheBatchTest, ManyCulpritsIdentified) {
  Rng rng(25);
  auto items = MakeItems(12, rng);
  std::set<size_t> bad = {1, 2, 7, 11};
  for (size_t i : bad) {
    if (i % 2 == 0) {
      items[i].message.push_back(0x01);  // tampered message
    } else {
      items[i].signature[40] ^= 0x10;  // tampered signature
    }
  }
  std::vector<bool> ok = FreshBatch(items);
  for (size_t i = 0; i < ok.size(); ++i) {
    EXPECT_EQ(ok[i], bad.count(i) == 0) << "item " << i;
  }

  // Every item bad: all verdicts false.
  for (auto& item : items) {
    item.signature[0] ^= 0xff;
  }
  EXPECT_EQ(FreshBatch(items), std::vector<bool>(items.size(), false));
}

TEST(VerifyCacheBatchTest, UndecodableInputsRejected) {
  Rng rng(26);
  auto items = MakeItems(4, rng);
  items[0].public_key.resize(16);                // wrong key size
  items[1].signature[63] |= 0xf0;                // non-canonical S
  items[2].signature.resize(10);                 // wrong signature size
  EXPECT_EQ(FreshBatch(items), (std::vector<bool>{false, false, false, true}));
}

TEST(VerifyCacheBatchTest, MatchesNaiveVerify) {
  Rng rng(27);
  auto items = MakeItems(6, rng);
  items[1].signature[7] ^= 2;         // tampered R
  items[3].signature[40] ^= 0x10;     // tampered S
  items[4].message.push_back(0x01);   // tampered message
  std::vector<bool> naive;
  for (const VerifyItem& item : items) {
    naive.push_back(crypto_oracle::VerifyNaive(item.public_key, item.message,
                                               item.signature));
  }
  EXPECT_EQ(naive, (std::vector<bool>{true, false, true, false, false, true}));
  EXPECT_EQ(FreshBatch(items), naive);
}

TEST(VerifyCacheTest, DifferentMessagesNeverShareAVerdict) {
  Rng rng(33);
  KeyPair kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer signer(kp);
  Bytes m1 = ToBytes("version 1"), m2 = ToBytes("version 2");
  Bytes sig = signer.Sign(m1);
  VerifyCache cache;
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(cache.Verify(kp.scheme, kp.public_key, m1, sig));
    EXPECT_FALSE(cache.Verify(kp.scheme, kp.public_key, m2, sig));
    EXPECT_EQ(cache.VerifyBatch(kp.scheme, {{kp.public_key, m2, sig},
                                            {kp.public_key, m1, sig}}),
              (std::vector<bool>{false, true}));
  }
  EXPECT_EQ(cache.size(), 2u);

  // Field boundaries are part of the key: an HMAC tag over ("ab", "c")
  // says nothing about ("a", "bc").
  Bytes tag = HmacSha256(ToBytes("ab"), ToBytes("c"));
  EXPECT_TRUE(cache.Verify(SignatureScheme::kHmacSha256, ToBytes("ab"),
                           ToBytes("c"), tag));
  EXPECT_FALSE(cache.Verify(SignatureScheme::kHmacSha256, ToBytes("a"),
                            ToBytes("bc"), tag));
}

TEST(VerifyCacheTest, PreparedKeysStayBounded) {
  Rng rng(34);
  VerifyCache cache;
  const size_t kKeys = VerifyCache::kPreparedKeys + 8;
  std::vector<VerifyItem> items = MakeItems(kKeys, rng);
  for (const VerifyItem& item : items) {
    EXPECT_TRUE(cache.Verify(SignatureScheme::kEd25519, item.public_key,
                             item.message, item.signature));
    EXPECT_LE(cache.prepared_keys(), VerifyCache::kPreparedKeys);
  }
  EXPECT_EQ(cache.prepared_keys(), VerifyCache::kPreparedKeys);
  EXPECT_EQ(cache.stats().keys_prepared, kKeys);

  // A new message under the most recent key reuses its table; one under
  // the first key, long evicted, builds it again.
  const VerifyItem& last = items.back();
  Bytes other = ToBytes("other");
  EXPECT_FALSE(cache.Verify(SignatureScheme::kEd25519, last.public_key, other,
                            last.signature));
  EXPECT_EQ(cache.stats().keys_prepared, kKeys);
  EXPECT_FALSE(cache.Verify(SignatureScheme::kEd25519, items[0].public_key,
                            other, items[0].signature));
  EXPECT_EQ(cache.stats().keys_prepared, kKeys + 1);
  EXPECT_EQ(cache.prepared_keys(), VerifyCache::kPreparedKeys);
}

TEST(VerifyCacheTest, HitMissAndNegativeCaching) {
  Rng rng(30);
  KeyPair kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer signer(kp);
  Bytes msg = ToBytes("pledge body");
  Bytes sig = signer.Sign(msg);
  Bytes bad = sig;
  bad[3] ^= 1;

  VerifyCache cache;
  EXPECT_TRUE(cache.Verify(kp.scheme, kp.public_key, msg, sig));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);

  EXPECT_TRUE(cache.Verify(kp.scheme, kp.public_key, msg, sig));
  EXPECT_EQ(cache.stats().hits, 1u);

  // A forged signature is cached too — with verdict false.
  EXPECT_FALSE(cache.Verify(kp.scheme, kp.public_key, msg, bad));
  EXPECT_FALSE(cache.Verify(kp.scheme, kp.public_key, msg, bad));
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(VerifyCacheTest, LruEviction) {
  Rng rng(31);
  KeyPair kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer signer(kp);
  Bytes m1 = ToBytes("m1"), m2 = ToBytes("m2"), m3 = ToBytes("m3");
  Bytes s1 = signer.Sign(m1), s2 = signer.Sign(m2), s3 = signer.Sign(m3);

  VerifyCache cache(/*capacity=*/2);
  cache.Verify(kp.scheme, kp.public_key, m1, s1);
  cache.Verify(kp.scheme, kp.public_key, m2, s2);
  // Touch m1 so m2 is the LRU entry, then insert m3 -> m2 evicted.
  cache.Verify(kp.scheme, kp.public_key, m1, s1);
  cache.Verify(kp.scheme, kp.public_key, m3, s3);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);

  uint64_t misses_before = cache.stats().misses;
  cache.Verify(kp.scheme, kp.public_key, m1, s1);  // still cached
  EXPECT_EQ(cache.stats().misses, misses_before);
  cache.Verify(kp.scheme, kp.public_key, m2, s2);  // was evicted
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(VerifyCacheTest, BatchDeduplicatesRepeatedTriples) {
  // The auditor's shape: many pledges carrying the identical master token.
  Rng rng(32);
  KeyPair slave_kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  KeyPair master_kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer slave(slave_kp);
  Signer master(master_kp);
  Bytes token_body = ToBytes("token v=7");
  Bytes token_sig = master.Sign(token_body);

  std::vector<VerifyItem> items;
  for (int i = 0; i < 4; ++i) {
    Bytes body = ToBytes("pledge " + std::to_string(i));
    items.push_back({slave_kp.public_key, body, slave.Sign(body)});
    items.push_back({master_kp.public_key, token_body, token_sig});
  }

  VerifyCache cache;
  std::vector<bool> ok = cache.VerifyBatch(SignatureScheme::kEd25519, items);
  for (size_t i = 0; i < ok.size(); ++i) {
    EXPECT_TRUE(ok[i]) << "item " << i;
  }
  // 4 distinct pledges + 1 distinct token verified; 3 token repeats hit the
  // in-batch dedup.
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_EQ(cache.stats().hits, 3u);

  // Re-verifying the same batch is all hits.
  cache.VerifyBatch(SignatureScheme::kEd25519, items);
  EXPECT_EQ(cache.stats().hits, 11u);
  EXPECT_EQ(cache.stats().misses, 5u);
}

TEST(SignerTest, AllSchemesRoundTrip) {
  Rng rng(11);
  for (SignatureScheme scheme :
       {SignatureScheme::kEd25519, SignatureScheme::kHmacSha256,
        SignatureScheme::kNull}) {
    KeyPair kp = KeyPair::Generate(scheme, rng);
    Signer signer(kp);
    Bytes msg = ToBytes("read pledge body");
    Bytes sig = signer.Sign(msg);
    EXPECT_TRUE(VerifySignature(scheme, kp.public_key, msg, sig))
        << "scheme " << static_cast<int>(scheme);
  }
}

TEST(SignerTest, HmacTamperDetected) {
  Rng rng(12);
  KeyPair kp = KeyPair::Generate(SignatureScheme::kHmacSha256, rng);
  Signer signer(kp);
  Bytes msg = ToBytes("v=3");
  Bytes sig = signer.Sign(msg);
  Bytes other = ToBytes("v=4");
  EXPECT_FALSE(
      VerifySignature(SignatureScheme::kHmacSha256, kp.public_key, other, sig));
}

}  // namespace
}  // namespace sdr
