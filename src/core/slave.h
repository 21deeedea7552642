// The slave server: holds a copy of the content, applies lazily pushed
// state updates from its master, and answers client read queries with
// signed pledge packets (paper Sections 2, 3.1, 3.2).
//
// Slaves are only marginally trusted, so the class also implements the
// malicious behaviours the protocol must catch; which behaviour a slave
// exhibits is part of the simulation configuration, invisible on the wire.
#ifndef SDR_SRC_CORE_SLAVE_H_
#define SDR_SRC_CORE_SLAVE_H_

#include <map>
#include <optional>

#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/core/metrics.h"
#include "src/core/pledge.h"
#include "src/core/service_queue.h"
#include "src/forkcheck/fork.h"
#include "src/runtime/env.h"
#include "src/store/document_store.h"
#include "src/store/executor.h"
#include "src/util/lru_map.h"

namespace sdr {

class Slave : public Node {
 public:
  // How this slave (mis)behaves. The default is honest.
  struct Behavior {
    // With this probability a read's result is silently corrupted while the
    // pledge hash matches the corrupted result — the paper's core threat:
    // undetectable at the client, caught only by double-check or audit.
    double lie_probability = 0.0;
    // Corrupt the result but leave the pledge hash computed over the
    // correct result — clients detect this immediately at the hash check.
    double inconsistent_lie_probability = 0.0;
    // Stop applying state updates (an honest slave in this state declines
    // reads once its token goes stale).
    bool ignore_updates = false;
    // Keep serving with the last (stale) token instead of declining —
    // clients reject such pledges by the freshness check.
    bool serve_despite_stale = false;
    // Drop read requests with this probability (unresponsiveness).
    double drop_probability = 0.0;
    // ---- Equivocation behaviors (caught by src/forkcheck/) ----
    // Maintain a forked view for the odd-id half of the clients: they get
    // results frozen at enablement time while the pledge still claims the
    // current version — an internally-consistent fork per client set that
    // produces no single falsifiable answer *within* either set.
    bool fork_views = false;
    // Serve every client from a one-version-lagged snapshot under the
    // current (fresh) token: stale content, freshly signed pledge.
    bool stale_pledge = false;
    // Like fork_views, but the equivocating replies are additionally held
    // back to just inside the freshness window (targeted slow-lies).
    bool split_serve = false;
  };

  struct Options {
    ProtocolParams params;
    CostModel cost;
    KeyPair key_pair;
    Behavior behavior;
    // Master public keys (master id -> key) for verifying version tokens.
    std::map<NodeId, Bytes> master_keys;
    uint64_t rng_seed = 1;
  };

  explicit Slave(Options options);

  // Repeats of one (token, query) at one version are served from a memo:
  // no execution, encoding, hashing or signing. A key repeats only within
  // one token's lifetime (one keep-alive period), so the reuse ceiling is
  // set by reads per slave per token; on 4-shard, 100k-client fleet runs
  // 256 entries reach it and 1024 leave 4x headroom. Results above
  // kMemoMaxResultBytes are not kept, which bounds the memo at about
  // 1024 x 16 KB per slave in a long-running process. On the 800-item
  // catalog a GET result is about 50 bytes and the largest GREP 14 KB.
  static constexpr size_t kMemoCapacity = 1024;
  static constexpr size_t kMemoMaxResultBytes = 16 * 1024;

  void Start() override;
  void HandleMessage(NodeId from, const Payload& payload) override;

  // Installs initial content at version 0 (out-of-band distribution).
  void SetBaseContent(const DocumentStore& base);

  // Behaviour is runtime-mutable so fault-injection scenarios can flip a
  // slave malicious (or honest again) mid-run.
  void SetBehavior(const Behavior& behavior) { options_.behavior = behavior; }
  const Behavior& behavior() const { return options_.behavior; }

  uint64_t applied_version() const { return applied_version_; }
  const Bytes& public_key() const { return signer_.public_key(); }
  const SlaveMetrics& metrics() const {
    metrics_.sig_cache_hits = verify_cache_.stats().hits;
    metrics_.sig_cache_misses = verify_cache_.stats().misses;
    metrics_.sig_cache_keys_prepared = verify_cache_.stats().keys_prepared;
    return metrics_;
  }
  const DocumentStore& store() const { return store_; }

 private:
  // One verified BatchCommit certificate admits a whole run of versions;
  // nothing else changes the store after SetBaseContent.
  void HandleStateUpdateBatch(NodeId from, BytesView body);
  void HandleKeepAlive(NodeId from, BytesView body);
  void HandleReadRequest(NodeId from, BytesView body);
  void ApplyBuffered();
  void MaybeAdoptToken(const VersionToken& token);
  bool TokenFresh() const;
  void AckTo(NodeId master);

  // One read served honestly from store_: the canonical result encoding,
  // its SHA-1, the work units it cost and the pledge signature. Ed25519
  // and HMAC are deterministic, so a reused signature is byte-identical to
  // a fresh one.
  struct ServedRead {
    Bytes result;
    Bytes result_sha1;
    uint64_t cost = 0;
    Bytes signature;
  };
  // The memo key: (applied_version_, token signature, canonical query
  // encoding). The version fixes the content and the query fixes the
  // result. The token signature stands for the whole token, which the
  // pledge signs: a verified token's signature differs from every other
  // token's, and under the null scheme, where all token signatures are
  // equal, so are all pledge signatures.
  Bytes MemoKey(const Query& query) const;

  Options options_;
  Signer signer_;
  Rng rng_;

  DocumentStore store_;
  QueryExecutor executor_;
  uint64_t applied_version_ = 0;
  // Certified versions waiting for a gap below them to fill, each with the
  // head token of the run it came in.
  struct BufferedVersion {
    WriteBatch batch;
    VersionToken token;
  };
  std::map<uint64_t, BufferedVersion> buffered_updates_;
  std::optional<VersionToken> token_;
  std::unique_ptr<ServiceQueue> queue_;

  // ---- Fork-consistency state (chains used only with fork_check_enabled,
  // views only while an equivocation behavior is active) ----
  // chains_[0] is the canonical pledge chain covering every client; an
  // equivocating slave lazily forks chains_[1] off it for the targeted
  // client set — the per-set chains are exactly what lets each set see an
  // internally-consistent history, and exactly what the signed
  // VersionVectors expose when the sets compare notes.
  PledgeChain chains_[2];
  bool chain1_forked_ = false;
  // Frozen content snapshots backing the attack behaviors.
  struct FrozenView {
    DocumentStore store;
    uint64_t version = 0;
  };
  std::optional<FrozenView> fork_view_;  // fork_views / split_serve
  std::optional<FrozenView> lag_view_;   // stale_pledge

  // The served-read memo (see kMemoCapacity).
  LruMap<ServedRead> memo_{kMemoCapacity};

  // Deduplicates token verifications: the same token arrives repeatedly via
  // keepalives and state updates during its lifetime.
  VerifyCache verify_cache_;
  mutable SlaveMetrics metrics_;
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_SLAVE_H_
