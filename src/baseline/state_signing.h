// Baseline 1: state signing (the paper's related work [7, 2, 6, 11, 13, 3]).
//
// The content is authenticated with a Merkle hash tree whose root the
// trusted owner signs at every version. Untrusted slaves can serve *point
// reads* with a membership proof that clients verify against the signed
// root — no pledges, no double-checking, no auditor needed. The defining
// limitation the paper argues against: "dynamic queries on the data need
// to be executed on trusted hosts", so every scan/grep/aggregate goes to a
// master, which must also verify nothing (it is trusted) but pays the full
// execution cost.
//
// The node set mirrors the core system so benchmark comparisons are
// apples-to-apples: one signing master (+ optional peers), slaves serving
// GETs, clients that route by query class.
#ifndef SDR_SRC_BASELINE_STATE_SIGNING_H_
#define SDR_SRC_BASELINE_STATE_SIGNING_H_

#include <map>
#include <memory>
#include <optional>

#include "src/core/config.h"
#include "src/core/service_queue.h"
#include "src/merkle/merkle_tree.h"
#include "src/runtime/env.h"
#include "src/store/executor.h"
#include "src/trace/histogram.h"

namespace sdr {

// Signed Merkle root: the per-version authenticator clients trust.
struct SignedRoot {
  Bytes root;
  uint64_t version = 0;
  SimTime timestamp = 0;
  Bytes signature;

  Bytes SignedBody() const;
};

SignedRoot MakeSignedRoot(const Signer& signer, const Bytes& root,
                          uint64_t version, SimTime now);
bool VerifySignedRoot(SignatureScheme scheme, const Bytes& public_key,
                      const SignedRoot& root);

class SsMaster : public Node {
 public:
  struct Options {
    ProtocolParams params;
    CostModel cost;
    KeyPair key_pair;
  };

  explicit SsMaster(Options options);
  void Start() override;
  void HandleMessage(NodeId from, const Payload& payload) override;

  void SetContent(const DocumentStore& content);
  // Commits a write batch: applies it, rebuilds + re-signs the tree, and
  // pushes the new state to registered slaves.
  void CommitWrite(const WriteBatch& batch);
  void AddSlave(NodeId slave);

  uint64_t dynamic_queries_served() const { return dynamic_queries_served_; }
  uint64_t work_units_executed() const { return work_units_; }
  const ServiceQueue& service_queue() const { return *queue_; }
  const Bytes& public_key() const { return signer_.public_key(); }
  uint64_t version() const { return version_; }

 private:
  void RefreshRoot();
  void RefreshTick();

  Options options_;
  Signer signer_;
  DocumentStore store_;
  MerkleTree tree_ = MerkleTree::Build(DocumentStore{});
  uint64_t version_ = 0;
  QueryExecutor executor_;
  std::unique_ptr<ServiceQueue> queue_;
  std::vector<NodeId> slaves_;
  uint64_t dynamic_queries_served_ = 0;
  uint64_t work_units_ = 0;
};

class SsSlave : public Node {
 public:
  struct Options {
    ProtocolParams params;
    CostModel cost;
  };

  explicit SsSlave(Options options);
  void Start() override;
  void HandleMessage(NodeId from, const Payload& payload) override;

  void SetContent(const DocumentStore& content, const SignedRoot& root);

  uint64_t point_reads_served() const { return point_reads_served_; }
  uint64_t work_units_executed() const { return work_units_; }
  const ServiceQueue& service_queue() const { return *queue_; }

 private:
  Options options_;
  DocumentStore store_;
  MerkleTree tree_ = MerkleTree::Build(DocumentStore{});
  std::optional<SignedRoot> root_;
  std::unique_ptr<ServiceQueue> queue_;
  uint64_t point_reads_served_ = 0;
  uint64_t work_units_ = 0;
};

class SsClient : public Node {
 public:
  struct Options {
    ProtocolParams params;
    Bytes master_public_key;
    NodeId master = kInvalidNode;
    NodeId slave = kInvalidNode;
  };

  explicit SsClient(Options options);
  void HandleMessage(NodeId from, const Payload& payload) override;

  using Callback = std::function<void(bool ok)>;
  // Routes by query class: GET -> slave (proof-verified), anything else ->
  // master (trusted execution).
  void IssueRead(const Query& query, Callback cb = nullptr);

  uint64_t reads_accepted() const { return reads_accepted_; }
  uint64_t proof_failures() const { return proof_failures_; }
  uint64_t reads_to_master() const { return reads_to_master_; }
  uint64_t reads_to_slave() const { return reads_to_slave_; }
  const LatencyHistogram& latency_us() const { return latency_us_; }

 private:
  struct PendingRead {
    Query query;
    SimTime issued = 0;
    Callback cb;
  };

  Options options_;
  uint64_t next_request_id_ = 1;
  std::map<uint64_t, PendingRead> pending_;
  uint64_t reads_accepted_ = 0;
  uint64_t proof_failures_ = 0;
  uint64_t reads_to_master_ = 0;
  uint64_t reads_to_slave_ = 0;
  LatencyHistogram latency_us_;
};

}  // namespace sdr

#endif  // SDR_SRC_BASELINE_STATE_SIGNING_H_
