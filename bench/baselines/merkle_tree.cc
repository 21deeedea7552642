#include "bench/baselines/merkle_tree.h"

#include <algorithm>

#include "src/crypto/sha2.h"
#include "src/util/serde.h"

namespace sdr {

namespace {
Bytes InternalHash(const Bytes& left, const Bytes& right) {
  Sha256 h;
  uint8_t tag = 0x01;
  h.Update(&tag, 1);
  h.Update(left);
  h.Update(right);
  return h.Final();
}

Bytes EmptyRoot() {
  uint8_t tag = 0x02;
  Sha256 h;
  h.Update(&tag, 1);
  return h.Final();
}
}  // namespace

Bytes MerkleTree::LeafHash(const std::string& key, const std::string& value) {
  Sha256 h;
  uint8_t tag = 0x00;
  h.Update(&tag, 1);
  Writer w;
  w.Blob(key);
  w.Blob(value);
  h.Update(w.bytes());
  return h.Final();
}

MerkleTree MerkleTree::Build(const DocumentStore& store) {
  MerkleTree tree;
  std::vector<Bytes> level;
  for (const auto& [key, value] : store.data()) {
    tree.entries_.emplace_back(key, value);
    level.push_back(LeafHash(key, value));
  }
  if (level.empty()) {
    tree.levels_.push_back({EmptyRoot()});
    return tree;
  }
  tree.levels_.push_back(level);
  while (tree.levels_.back().size() > 1) {
    const std::vector<Bytes>& prev = tree.levels_.back();
    std::vector<Bytes> next;
    next.reserve((prev.size() + 1) / 2);
    for (size_t i = 0; i + 1 < prev.size(); i += 2) {
      next.push_back(InternalHash(prev[i], prev[i + 1]));
    }
    if (prev.size() % 2 == 1) {
      next.push_back(prev.back());  // odd promotion
    }
    tree.levels_.push_back(std::move(next));
  }
  return tree;
}

std::optional<MerkleTree::Proof> MerkleTree::Prove(
    const std::string& key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it == entries_.end() || it->first != key) {
    return std::nullopt;
  }
  size_t index = static_cast<size_t>(it - entries_.begin());

  Proof proof;
  proof.key = key;
  proof.value = it->second;
  size_t pos = index;
  for (size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    const std::vector<Bytes>& level = levels_[lvl];
    ProofStep step;
    if (pos % 2 == 0) {
      if (pos + 1 < level.size()) {
        step.sibling = level[pos + 1];
      } else {
        step.flags = StepFlags::kPromoted;
      }
    } else {
      step.flags = StepFlags::kSiblingOnLeft;
      step.sibling = level[pos - 1];
    }
    proof.steps.push_back(std::move(step));
    pos /= 2;
  }
  return proof;
}

bool MerkleTree::VerifyProof(const Proof& proof, const Bytes& root) {
  Bytes h = LeafHash(proof.key, proof.value);
  for (const ProofStep& step : proof.steps) {
    if (step.promoted()) {
      continue;
    }
    h = step.sibling_on_left() ? InternalHash(step.sibling, h)
                               : InternalHash(h, step.sibling);
  }
  return h == root;
}

}  // namespace sdr
