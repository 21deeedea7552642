// Baseline 2: state machine replication with quorum reads (the paper's
// related work [4, 15, 10, 17], PBFT-style).
//
// Every read is executed by a quorum of 2f+1 untrusted replicas; the
// client accepts a result once f+1 replicas agree on its hash. Malicious
// replicas must *collude* (return the same wrong answer) to defeat it.
// The defining costs the paper argues against:
//   - each request consumes (2f+1)x the execution resources,
//   - the client-observed latency is set by the (f+1)-th matching reply,
//     i.e. effectively by the slower members of the quorum.
#ifndef SDR_SRC_BASELINE_SMR_QUORUM_H_
#define SDR_SRC_BASELINE_SMR_QUORUM_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/config.h"
#include "src/core/service_queue.h"
#include "src/runtime/env.h"
#include "src/store/executor.h"
#include "src/trace/histogram.h"

namespace sdr {

class QrReplica : public Node {
 public:
  struct Options {
    CostModel cost;
    // Colluding replicas corrupt results *deterministically* (same wrong
    // bytes on every colluder) — the strongest realistic attack, since
    // independent lies never match.
    bool colluding = false;
  };

  explicit QrReplica(Options options);
  void Start() override;
  void HandleMessage(NodeId from, const Payload& payload) override;

  void SetContent(const DocumentStore& content);

  uint64_t reads_executed() const { return reads_executed_; }
  uint64_t work_units_executed() const { return work_units_; }
  const ServiceQueue& service_queue() const { return *queue_; }

 private:
  Options options_;
  DocumentStore store_;
  QueryExecutor executor_;
  std::unique_ptr<ServiceQueue> queue_;
  uint64_t reads_executed_ = 0;
  uint64_t work_units_ = 0;
};

class QrClient : public Node {
 public:
  struct Options {
    std::vector<NodeId> replicas;  // the full replica set
    int f = 1;                     // tolerate up to f faulty replicas
  };

  explicit QrClient(Options options);
  void HandleMessage(NodeId from, const Payload& payload) override;

  using Callback = std::function<void(bool ok, const QueryResult& result)>;
  // Sends the query to 2f+1 replicas; accepts on f+1 matching hashes.
  void IssueRead(const Query& query, Callback cb = nullptr);

  uint64_t reads_accepted() const { return reads_accepted_; }
  uint64_t wrong_accepted() const { return wrong_accepted_; }
  uint64_t reads_unresolved() const { return reads_unresolved_; }
  const LatencyHistogram& latency_us() const { return latency_us_; }

  // Ground truth hook: called with the accepted result's hash and the
  // honest hash is compared externally; here we just expose acceptance.
  std::function<void(const Query&, const QueryResult&)> on_accept;

 private:
  struct PendingRead {
    Query query;
    SimTime issued = 0;
    int quorum_size = 0;
    int replies = 0;
    std::map<Bytes, std::pair<int, QueryResult>> votes;  // hash -> count
    Callback cb;
    bool done = false;
  };

  Options options_;
  uint64_t next_request_id_ = 1;
  std::map<uint64_t, PendingRead> pending_;
  uint64_t reads_accepted_ = 0;
  uint64_t wrong_accepted_ = 0;
  uint64_t reads_unresolved_ = 0;
  LatencyHistogram latency_us_;
};

}  // namespace sdr

#endif  // SDR_SRC_BASELINE_SMR_QUORUM_H_
