// The multi-slave read variant (paper Section 4): "send the same read
// request to more than one untrusted server. If all the answers are
// identical, the client proceeds as in the original algorithm —
// double-check with the master (with a small probability) and send the
// pledge packets to the auditor. If not all answers match, the client
// automatically double-checks, since at least one of the slaves has to be
// malicious." A number of malicious slaves would have to collude to pass
// an incorrect answer; the price is k-fold untrusted execution.
//
// The variant runs against the paper's single master group; each reply
// passes the same VerifyRead checks as the base client's.
#ifndef SDR_SRC_CORE_MULTIREAD_CLIENT_H_
#define SDR_SRC_CORE_MULTIREAD_CLIENT_H_

#include <functional>
#include <map>
#include <vector>

#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/core/metrics.h"
#include "src/runtime/env.h"
#include "src/store/executor.h"

namespace sdr {

class MultiReadClient : public Node {
 public:
  struct Options {
    ProtocolParams params;
    // The k slaves this client fans every read out to (certs from the
    // master at an extended setup; wired directly by the harness here).
    std::vector<Certificate> slave_certs;
    std::map<NodeId, Bytes> master_keys;
    NodeId master = kInvalidNode;
    NodeId auditor = kInvalidNode;
    uint64_t rng_seed = 1;
  };

  struct Metrics {
    uint64_t reads_issued = 0;
    uint64_t reads_accepted = 0;
    uint64_t unanimous = 0;         // all k answers matched
    uint64_t disagreements = 0;     // triggered a mandatory double-check
    uint64_t double_checks_sent = 0;
    uint64_t accusations_sent = 0;
    uint64_t reads_failed = 0;
  };

  explicit MultiReadClient(Options options);

  void Start() override;
  void HandleMessage(NodeId from, const Payload& payload) override;

  using Callback = std::function<void(bool ok, const QueryResult& result)>;
  void IssueRead(const Query& query, Callback cb = nullptr);

  // Invoked on accept with the pledged version (ground-truth hook).
  std::function<void(const Query&, uint64_t version, const QueryResult&)>
      on_accept;

  const Metrics& metrics() const { return metrics_; }

 private:
  struct PendingRead {
    Query query;
    SimTime issued = 0;
    size_t expected = 0;
    // Declines (slave out of sync / excluded) count toward completion so
    // one dead slave does not force every read to wait out the timeout.
    size_t declines = 0;
    // Verified replies: slave -> (result, pledge).
    std::map<NodeId, std::pair<QueryResult, Pledge>> replies;
    EventId timeout = 0;
    bool double_checking = false;
    Callback cb;
  };

  void HandleReadReply(NodeId from, BytesView body);
  void HandleDoubleCheckReply(BytesView body);
  void Resolve(uint64_t request_id);
  void Accept(uint64_t request_id, const QueryResult& result,
              const Pledge& pledge);
  void Fail(uint64_t request_id, uint64_t trace_id);
  const Certificate* CertFor(NodeId slave) const;

  Options options_;
  Rng rng_;
  uint64_t next_request_id_ = 1;
  std::map<uint64_t, PendingRead> pending_;
  Metrics metrics_;
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_MULTIREAD_CLIENT_H_
