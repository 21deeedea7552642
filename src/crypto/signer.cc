#include "src/crypto/signer.h"

#include <cstdint>
#include <unordered_map>

#include "src/crypto/ed25519.h"
#include "src/crypto/hmac.h"
#include "src/util/parallel.h"

namespace sdr {

const char* SignatureSchemeName(SignatureScheme scheme) {
  switch (scheme) {
    case SignatureScheme::kEd25519:
      return "ed25519";
    case SignatureScheme::kHmacSha256:
      return "hmac-sha256";
    case SignatureScheme::kNull:
      return "null";
  }
  return "?";
}

KeyPair KeyPair::Generate(SignatureScheme scheme, Rng& rng) {
  KeyPair kp;
  kp.scheme = scheme;
  switch (scheme) {
    case SignatureScheme::kEd25519: {
      kp.private_key = rng.NextBytes(kEd25519SeedSize);
      kp.public_key = Ed25519PublicKey(kp.private_key);
      break;
    }
    case SignatureScheme::kHmacSha256: {
      kp.private_key = rng.NextBytes(32);
      kp.public_key = kp.private_key;
      break;
    }
    case SignatureScheme::kNull:
      break;
  }
  return kp;
}

Bytes Signer::Sign(const Bytes& message) const {
  switch (key_.scheme) {
    case SignatureScheme::kEd25519:
      if (!expanded_) {
        expanded_ = std::make_shared<Ed25519ExpandedKey>(
            Ed25519ExpandKey(key_.private_key));
      }
      return Ed25519SignExpanded(*expanded_, message);
    case SignatureScheme::kHmacSha256:
      return HmacSha256(key_.private_key, message);
    case SignatureScheme::kNull:
      return Bytes{0x4e};  // non-empty marker so "missing" != "null-signed"
  }
  return Bytes();
}

bool VerifySignature(SignatureScheme scheme, const Bytes& public_key,
                     const Bytes& message, const Bytes& signature) {
  switch (scheme) {
    case SignatureScheme::kEd25519:
      return Ed25519Verify(public_key, message, signature);
    case SignatureScheme::kHmacSha256:
      return ConstantTimeEquals(HmacSha256(public_key, message), signature);
    case SignatureScheme::kNull:
      return signature == Bytes{0x4e};
  }
  return false;
}

void VerifyCache::AppendKey(std::string& out, SignatureScheme scheme,
                            const Bytes& public_key, const Bytes& message,
                            const Bytes& signature) {
  // Length-prefix each field so (key, message) boundaries cannot collide.
  char hdr[1 + 3 * 8];
  hdr[0] = static_cast<char>(scheme);
  auto put_len = [&hdr](int at, uint64_t n) {
    for (int i = 0; i < 8; ++i) {
      hdr[at + i] = static_cast<char>(n >> (8 * i));
    }
  };
  put_len(1, public_key.size());
  put_len(9, message.size());
  put_len(17, signature.size());
  out.reserve(out.size() + sizeof(hdr) + public_key.size() + message.size() +
              signature.size());
  out.append(hdr, sizeof(hdr));
  for (const Bytes* field : {&public_key, &message, &signature}) {
    out.append(reinterpret_cast<const char*>(field->data()), field->size());
  }
}

const bool* VerifyCache::Lookup(std::string_view key) {
  const bool* verdict = verdicts_.Find(key);
  if (verdict != nullptr) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return verdict;
}

void VerifyCache::Insert(std::string key, bool verdict) {
  if (verdicts_.Insert(std::move(key), verdict)) {
    ++stats_.evictions;
  }
}

VerifyCache::PreparedKeyPtr VerifyCache::Prepare(SignatureScheme scheme,
                                                 const Bytes& public_key) {
  if (scheme != SignatureScheme::kEd25519) {
    return nullptr;
  }
  std::string_view id(reinterpret_cast<const char*>(public_key.data()),
                      public_key.size());
  if (PreparedKeyPtr* found = prepared_.Find(id)) {
    return *found;
  }
  PreparedKeyPtr key = Ed25519PrepareKey(public_key);
  if (key != nullptr) {
    ++stats_.keys_prepared;
    prepared_.Insert(std::string(id), key);
  }
  return key;
}

bool VerifyCache::VerifyMiss(SignatureScheme scheme,
                             const Ed25519PreparedKey* prepared,
                             const Bytes& public_key, const Bytes& message,
                             const Bytes& signature) {
  if (scheme == SignatureScheme::kEd25519) {
    // No prepared key means an undecodable one, which verifies nothing.
    return prepared != nullptr &&
           Ed25519VerifyPrepared(*prepared, message, signature);
  }
  return VerifySignature(scheme, public_key, message, signature);
}

bool VerifyCache::Verify(SignatureScheme scheme, const Bytes& public_key,
                         const Bytes& message, const Bytes& signature) {
  if (scheme == SignatureScheme::kNull) {
    return VerifySignature(scheme, public_key, message, signature);
  }
  key_scratch_.clear();
  AppendKey(key_scratch_, scheme, public_key, message, signature);
  if (const bool* cached = Lookup(key_scratch_)) {
    return *cached;
  }
  PreparedKeyPtr prepared = Prepare(scheme, public_key);
  bool verdict =
      VerifyMiss(scheme, prepared.get(), public_key, message, signature);
  Insert(key_scratch_, verdict);
  return verdict;
}

std::vector<bool> VerifyCache::VerifyBatch(SignatureScheme scheme,
                                           const std::vector<VerifyItem>& items,
                                           WorkerPool* pool) {
  std::vector<bool> out(items.size(), false);
  if (scheme == SignatureScheme::kNull) {
    for (size_t i = 0; i < items.size(); ++i) {
      out[i] = VerifySignature(scheme, items[i].public_key, items[i].message,
                               items[i].signature);
    }
    return out;
  }
  // The deduplicated misses. Duplicates inside one batch (the same version
  // token on many pledges) are verified once and counted as hits.
  struct Miss {
    const VerifyItem* item;
    std::string key;
    PreparedKeyPtr prepared;
    bool verdict = false;
  };
  std::vector<Miss> misses;
  misses.reserve(items.size());  // `pending` views the keys in place
  std::unordered_map<std::string_view, size_t> pending;
  constexpr size_t kAnswered = SIZE_MAX;
  std::vector<size_t> miss_slot(items.size(), kAnswered);
  for (size_t i = 0; i < items.size(); ++i) {
    const VerifyItem& item = items[i];
    std::string key;
    AppendKey(key, scheme, item.public_key, item.message, item.signature);
    auto dup = pending.find(key);
    if (dup != pending.end()) {
      ++stats_.hits;
      miss_slot[i] = dup->second;
      continue;
    }
    if (const bool* cached = Lookup(key)) {
      out[i] = *cached;
      continue;
    }
    miss_slot[i] = misses.size();
    misses.push_back({&item, std::move(key), Prepare(scheme, item.public_key)});
    pending.emplace(misses.back().key, miss_slot[i]);
  }

  auto verify = [&](int /*lane*/, int slot) {
    Miss& m = misses[slot];
    m.verdict = VerifyMiss(scheme, m.prepared.get(), m.item->public_key,
                           m.item->message, m.item->signature);
  };
  const int n = static_cast<int>(misses.size());
  if (pool != nullptr && pool->jobs() > 1 && n >= 2) {
    pool->Run(n, verify);
  } else {
    for (int slot = 0; slot < n; ++slot) {
      verify(0, slot);
    }
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (miss_slot[i] != kAnswered) {
      out[i] = misses[miss_slot[i]].verdict;
    }
  }
  for (Miss& m : misses) {
    Insert(std::move(m.key), m.verdict);
  }
  return out;
}

}  // namespace sdr
