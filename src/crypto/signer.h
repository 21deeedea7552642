// Pluggable signing abstraction.
//
// The protocol's guarantees hinge on non-repudiable slave signatures over
// pledge packets, so the default scheme is real Ed25519. For very large
// simulations (millions of reads) an HMAC mode trades non-repudiation for
// speed — everything else in the protocol stays identical — and a Null mode
// exists for logic-only unit tests. Which mode is in use is part of the
// cluster configuration and is reported by the benches.
//
// VerifyCache sits on top of plain VerifySignature. It deduplicates
// repeated verifications of the same (key, message, signature) triple, e.g.
// one master's version token attached to thousands of pledges, and checks
// the rest of its Ed25519 signatures against prepared public keys: each
// deployment has a few dozen long-lived keys, so the per-key table a
// prepared key costs is built once and then reused by every verification.
#ifndef SDR_SRC_CRYPTO_SIGNER_H_
#define SDR_SRC_CRYPTO_SIGNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/lru_map.h"
#include "src/util/rng.h"

namespace sdr {

struct Ed25519ExpandedKey;
struct Ed25519PreparedKey;
class WorkerPool;

enum class SignatureScheme : uint8_t {
  kEd25519 = 0,
  kHmacSha256 = 1,  // symmetric; verifier must hold the same key
  kNull = 2,        // no-op; for logic-only tests
};

// The highest scheme a decoder accepts (src/util/serde.h).
constexpr SignatureScheme WireEnumLast(SignatureScheme) {
  return SignatureScheme::kNull;
}

// A key pair under one of the schemes. For kEd25519 `private_key` is the
// 32-byte seed and `public_key` the compressed point; for kHmacSha256 both
// are the shared key; for kNull both are empty.
struct KeyPair {
  SignatureScheme scheme = SignatureScheme::kEd25519;
  Bytes private_key;
  Bytes public_key;

  // Deterministic key generation from the simulation RNG.
  static KeyPair Generate(SignatureScheme scheme, Rng& rng);
};

// Signs messages with a held private key. For Ed25519 the seed is expanded
// once on first use (secret scalar, nonce prefix, public key), so repeated
// signing — a slave pledging every read — skips the per-call key setup.
class Signer {
 public:
  explicit Signer(KeyPair key_pair) : key_(std::move(key_pair)) {}

  Bytes Sign(const Bytes& message) const;
  const Bytes& public_key() const { return key_.public_key; }
  SignatureScheme scheme() const { return key_.scheme; }

 private:
  KeyPair key_;
  mutable std::shared_ptr<Ed25519ExpandedKey> expanded_;  // lazy, Ed25519 only
};

// Verifies signatures against a public key.
bool VerifySignature(SignatureScheme scheme, const Bytes& public_key,
                     const Bytes& message, const Bytes& signature);

// One (public key, message, signature) triple for VerifyCache::VerifyBatch.
struct VerifyItem {
  Bytes public_key;
  Bytes message;
  Bytes signature;
};

// A small LRU cache deduplicating repeated verifications of the identical
// (scheme, public key, message, signature) triple. Both verdicts are
// cached: a forged signature stays forged no matter how often it is
// retried. Entries are keyed by the length-prefixed triple itself, compared
// in full, so two triples share a verdict only when they are equal.
// Null-scheme verifications bypass the cache (a map lookup costs more than
// the check itself).
//
// Ed25519 misses are verified against prepared public keys (see
// Ed25519PrepareKey), held in a second LRU of kPreparedKeys entries and
// built the first time a key is seen.
//
// Not thread-safe, by design — each simulated node owns its cache.
class VerifyCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t keys_prepared = 0;  // Ed25519 key tables built
  };

  // About 2 MB of prepared-key tables at most.
  static constexpr size_t kPreparedKeys = 64;

  explicit VerifyCache(size_t capacity = 1024)
      : verdicts_(capacity), prepared_(kPreparedKeys) {}

  // Cached equivalent of VerifySignature.
  bool Verify(SignatureScheme scheme, const Bytes& public_key,
              const Bytes& message, const Bytes& signature);

  // out[i] == Verify(items[i]) for every i. Hits are answered from the
  // cache and duplicates inside the batch are verified once.
  //
  // With a WorkerPool the miss verifications fan out across its lanes.
  // Prepared keys are looked up or built, and cache lookups and inserts
  // made, on the calling thread only, so the lanes share nothing mutable.
  // The verdicts are a function of the items alone, identical at any lane
  // count.
  std::vector<bool> VerifyBatch(SignatureScheme scheme,
                                const std::vector<VerifyItem>& items,
                                WorkerPool* pool = nullptr);

  const Stats& stats() const { return stats_; }
  size_t size() const { return verdicts_.size(); }
  size_t capacity() const { return verdicts_.capacity(); }
  // sdrlint:allow(R9 tests check the prepared-key table stays bounded)
  size_t prepared_keys() const { return prepared_.size(); }

 private:
  using PreparedKeyPtr = std::shared_ptr<const Ed25519PreparedKey>;

  // Appends the length-prefixed (scheme, key, message, signature) bytes.
  static void AppendKey(std::string& out, SignatureScheme scheme,
                        const Bytes& public_key, const Bytes& message,
                        const Bytes& signature);
  // Returns the cached verdict for key, refreshing its LRU position;
  // nullptr on miss. Updates hit/miss counters.
  const bool* Lookup(std::string_view key);
  void Insert(std::string key, bool verdict);
  // The prepared key for an Ed25519 public key, built on first use; null
  // for other schemes and for undecodable keys.
  PreparedKeyPtr Prepare(SignatureScheme scheme, const Bytes& public_key);
  // An uncached verification; `prepared` comes from Prepare.
  static bool VerifyMiss(SignatureScheme scheme,
                         const Ed25519PreparedKey* prepared,
                         const Bytes& public_key, const Bytes& message,
                         const Bytes& signature);

  LruMap<bool> verdicts_;
  LruMap<PreparedKeyPtr> prepared_;
  std::string key_scratch_;  // reused by Verify so hits do not allocate
  Stats stats_;
};

}  // namespace sdr

#endif  // SDR_SRC_CRYPTO_SIGNER_H_
