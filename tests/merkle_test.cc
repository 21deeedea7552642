#include <gtest/gtest.h>

#include "bench/baselines/merkle_tree.h"
#include "src/store/document_store.h"
#include "src/util/rng.h"
#include "tests/hex.h"

namespace sdr {
namespace {

DocumentStore StoreWithN(int n) {
  DocumentStore s;
  for (int i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    s.Apply(WriteOp::Put(key, "value-" + std::to_string(i)));
  }
  return s;
}

TEST(MerkleTest, EmptyStoreHasStableRoot) {
  DocumentStore s;
  MerkleTree a = MerkleTree::Build(s);
  MerkleTree b = MerkleTree::Build(s);
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.leaf_count(), 0u);
  EXPECT_FALSE(a.Prove("anything").has_value());
}

TEST(MerkleTest, RootChangesWithContent) {
  DocumentStore s = StoreWithN(8);
  Bytes root1 = MerkleTree::Build(s).root();
  s.Apply(WriteOp::Put("k0003", "tampered"));
  Bytes root2 = MerkleTree::Build(s).root();
  EXPECT_NE(root1, root2);
}

class MerkleProofSizes : public ::testing::TestWithParam<int> {};

TEST_P(MerkleProofSizes, EveryKeyProvableAtAnySize) {
  const int n = GetParam();
  DocumentStore s = StoreWithN(n);
  MerkleTree tree = MerkleTree::Build(s);
  EXPECT_EQ(tree.leaf_count(), static_cast<size_t>(n));
  for (const auto& [key, value] : s.data()) {
    auto proof = tree.Prove(key);
    ASSERT_TRUE(proof.has_value()) << key << " n=" << n;
    EXPECT_EQ(proof->value, value);
    EXPECT_TRUE(MerkleTree::VerifyProof(*proof, tree.root()))
        << key << " n=" << n;
  }
}

// Odd sizes exercise the promoted-node path.
INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofSizes,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                                           31, 33, 64, 100));

TEST(MerkleTest, TamperedValueFailsVerification) {
  DocumentStore s = StoreWithN(10);
  MerkleTree tree = MerkleTree::Build(s);
  auto proof = tree.Prove("k0004");
  ASSERT_TRUE(proof.has_value());
  proof->value = "malicious";
  EXPECT_FALSE(MerkleTree::VerifyProof(*proof, tree.root()));
}

TEST(MerkleTest, SwappedKeyFailsVerification) {
  DocumentStore s = StoreWithN(10);
  MerkleTree tree = MerkleTree::Build(s);
  auto proof = tree.Prove("k0004");
  ASSERT_TRUE(proof.has_value());
  proof->key = "k0005";
  EXPECT_FALSE(MerkleTree::VerifyProof(*proof, tree.root()));
}

TEST(MerkleTest, ProofAgainstWrongRootFails) {
  DocumentStore s1 = StoreWithN(10);
  DocumentStore s2 = StoreWithN(10);
  s2.Apply(WriteOp::Put("k0009", "changed"));
  MerkleTree t1 = MerkleTree::Build(s1);
  MerkleTree t2 = MerkleTree::Build(s2);
  auto proof = t1.Prove("k0004");
  ASSERT_TRUE(proof.has_value());
  EXPECT_FALSE(MerkleTree::VerifyProof(*proof, t2.root()));
}

TEST(MerkleTest, TamperedSiblingFailsVerification) {
  DocumentStore s = StoreWithN(16);
  MerkleTree tree = MerkleTree::Build(s);
  auto proof = tree.Prove("k0007");
  ASSERT_TRUE(proof.has_value());
  ASSERT_FALSE(proof->steps.empty());
  proof->steps[0].sibling[0] ^= 1;
  EXPECT_FALSE(MerkleTree::VerifyProof(*proof, tree.root()));
}

TEST(MerkleTest, ProofSerdeRoundTrip) {
  DocumentStore s = StoreWithN(13);
  MerkleTree tree = MerkleTree::Build(s);
  auto proof = tree.Prove("k0012");  // last key in an odd tree
  ASSERT_TRUE(proof.has_value());
  auto decoded = MerkleTree::Proof::Decode(proof->Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->key, proof->key);
  EXPECT_EQ(decoded->value, proof->value);
  EXPECT_EQ(decoded->steps, proof->steps);
  EXPECT_TRUE(MerkleTree::VerifyProof(*decoded, tree.root()));
}

TEST(MerkleTest, ProofDecodeRejectsGarbage) {
  EXPECT_FALSE(MerkleTree::Proof::Decode(Bytes{1, 2, 3}).ok());
  // A flags byte beyond the four a step can have: it once decoded to the
  // flags of its low two bits and re-encoded differently.
  DocumentStore s = StoreWithN(5);
  auto proof = MerkleTree::Build(s).Prove("k0001");
  ASSERT_TRUE(proof.has_value());
  Bytes bytes = proof->Encode();
  const size_t first_flags =
      4 + proof->key.size() + 4 + proof->value.size() + 4;
  ASSERT_EQ(bytes[first_flags], 1);  // the sibling of k0001 is on the left
  bytes[first_flags] = 0xfd;
  EXPECT_FALSE(MerkleTree::Proof::Decode(bytes).ok());
}

TEST(MerkleTest, RandomizedContentAllProofsVerify) {
  Rng rng(77);
  DocumentStore s;
  for (int i = 0; i < 200; ++i) {
    s.Apply(WriteOp::Put(HexEncode(rng.NextBytes(6)),
                         ToString(rng.NextBytes(rng.NextBounded(40)))));
  }
  MerkleTree tree = MerkleTree::Build(s);
  for (const auto& [key, value] : s.data()) {
    auto proof = tree.Prove(key);
    ASSERT_TRUE(proof.has_value());
    EXPECT_TRUE(MerkleTree::VerifyProof(*proof, tree.root()));
  }
}

}  // namespace
}  // namespace sdr
