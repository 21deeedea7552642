// Merkle hash tree over the document store, for the state-signing baseline
// (related-work systems [7, 11, 13, 3] in the paper): the content owner
// signs the root; slaves serve point reads with membership proofs that
// clients verify against the signed root.
//
// Leaves are H(0x00 || key || value) in key order; internal nodes are
// H(0x01 || left || right); an odd node at the end of a level is promoted
// unchanged. The empty tree has root H(0x02).
#ifndef SDR_BENCH_BASELINES_MERKLE_TREE_H_
#define SDR_BENCH_BASELINES_MERKLE_TREE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/store/document_store.h"
#include "src/util/bytes.h"
#include "src/util/serde.h"

namespace sdr {

class MerkleTree {
 public:
  // One level of a proof: where the sibling hash sits, or that the level
  // had none (odd promotion, no hash folded). One byte on the wire; bit 0
  // is "sibling on the left", bit 1 "promoted".
  enum class StepFlags : uint8_t {
    kSiblingOnRight = 0,
    kSiblingOnLeft = 1,
    kPromoted = 2,
    kPromotedOnLeft = 3,
  };
  friend constexpr StepFlags WireEnumLast(StepFlags) {
    return StepFlags::kPromotedOnLeft;
  }

  struct ProofStep {
    StepFlags flags = StepFlags::kSiblingOnRight;
    Bytes sibling;

    bool sibling_on_left() const {
      return (static_cast<uint8_t>(flags) & 1) != 0;
    }
    bool promoted() const { return (static_cast<uint8_t>(flags) & 2) != 0; }
    bool operator==(const ProofStep&) const = default;
    SDR_WIRE_FIELDS(ProofStep, flags, sibling)
  };

  // A membership proof for (key, value) against a root.
  struct Proof {
    std::string key;
    std::string value;
    std::vector<ProofStep> steps;

    SDR_WIRE_FIELDS(Proof, key, value, steps)
    // Deeper than any 2^64-leaf tree is corrupt.
    bool WireValid() const { return steps.size() <= 64; }
  };

  // Builds the tree for the current store contents.
  static MerkleTree Build(const DocumentStore& store);

  const Bytes& root() const { return levels_.back()[0]; }
  size_t leaf_count() const { return entries_.size(); }

  // Produces a membership proof (key, value, and path); nullopt if the key
  // is absent. (The baseline routes reads of absent keys — like all
  // non-point queries — to a trusted master; authenticated non-membership
  // would need a range proof, which these 2003-era systems typically
  // lacked.)
  std::optional<Proof> Prove(const std::string& key) const;

  // Verifies a proof against `root`.
  static bool VerifyProof(const Proof& proof, const Bytes& root);

  static Bytes LeafHash(const std::string& key, const std::string& value);

 private:
  MerkleTree() = default;

  // Sorted leaf entries (key, value); values retained so proofs are
  // self-contained.
  std::vector<std::pair<std::string, std::string>> entries_;
  std::vector<std::vector<Bytes>> levels_;  // levels_[0] = leaves
};

}  // namespace sdr

#endif  // SDR_BENCH_BASELINES_MERKLE_TREE_H_
