// Simplified PBFT-style Byzantine-tolerant total-order broadcast — the
// road NOT taken by the paper, implemented to quantify why (Section 3):
//
//   "Since only masters are trusted, a total ordering broadcast protocol
//   including the slaves would have to be resistant to byzantine failures,
//   and implementing such an algorithm over a WAN is extremely expensive.
//   'Lazy' state updates make the write protocol much more efficient."
//
// This is the common-case three-phase protocol of Castro-Liskov PBFT
// (pre-prepare, prepare, commit) with n = 3f+1 replicas and 2f+1 quorums,
// counting every message and per-message authenticator. View changes are
// not implemented: the ablation (bench_e11_lazy_vs_eager) measures the
// *common-case* cost, which is what the paper's efficiency argument rests
// on; a primary crash therefore halts this broadcast (documented
// limitation, matching the scope of the comparison).
#ifndef SDR_BENCH_BASELINES_BFT_ORDER_H_
#define SDR_BENCH_BASELINES_BFT_ORDER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/runtime/env.h"
#include "src/util/bytes.h"
#include "src/util/serde.h"

namespace sdr {

class BftOrderBroadcast {
 public:
  struct Config {
    std::vector<NodeId> group;  // n = 3f+1 recommended
    // Per-message authenticator cost accounting (MACs in PBFT).
    SimTime retransmit_timeout = 500 * kMillisecond;
  };

  using SendFn = std::function<void(NodeId to, const Bytes& payload)>;
  using DeliverFn =
      std::function<void(uint64_t seq, NodeId origin, const Bytes& payload)>;

  BftOrderBroadcast(Env* env, Node* owner, Config config, SendFn send,
                    DeliverFn deliver);

  void Start();

  // Submits a payload for Byzantine-tolerant total ordering.
  void Broadcast(Bytes payload);

  void OnMessage(NodeId from, BytesView payload);

  int f() const { return (static_cast<int>(config_.group.size()) - 1) / 3; }
  int quorum() const { return 2 * f() + 1; }
  NodeId primary() const { return config_.group.front(); }
  bool IsPrimary() const { return primary() == owner_->id(); }
  uint64_t delivered_seq() const { return delivered_seq_; }

  // Cost accounting for the ablation.
  uint64_t protocol_messages_sent() const { return messages_sent_; }
  uint64_t authenticators_computed() const { return auth_ops_; }

  // The wire messages: a MsgType byte, then the message's field list.
  enum MsgType : uint8_t {
    kRequest = 1,     // member -> primary: Request
    kPrePrepare = 2,  // primary -> all: PrePrepare
    kPrepare = 3,     // all -> all: Vote
    kCommit = 4,      // all -> all: Vote
  };

  struct Request {
    NodeId origin = kInvalidNode;
    uint64_t local_id = 0;  // the origin's dedup id
    Bytes payload;
    SDR_WIRE_FIELDS(Request, origin, local_id, payload)
  };

  struct PrePrepare {
    uint64_t seq = 0;
    NodeId origin = kInvalidNode;
    // Only the origin's own bookkeeping reads it; retransmissions send 0.
    uint64_t local_id = 0;
    Bytes payload;
    SDR_WIRE_FIELDS(PrePrepare, seq, origin, local_id, payload)
  };

  // A prepare or a commit for instance `seq`.
  struct Vote {
    uint64_t seq = 0;
    SDR_WIRE_FIELDS(Vote, seq)
  };

 private:
  struct Instance {
    NodeId origin = kInvalidNode;
    Bytes payload;
    bool have_preprepare = false;
    std::set<NodeId> prepares;
    std::set<NodeId> commits;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool delivered = false;
  };

  void SendToAll(const Bytes& payload);
  void SendTo(NodeId to, const Bytes& payload);
  void SubmitRequest(uint64_t local_id, const Bytes& payload);
  void HandleRequest(const Request& msg);
  void HandlePrePrepare(const PrePrepare& msg);
  void HandlePrepare(NodeId from, uint64_t seq);
  void HandleCommit(NodeId from, uint64_t seq);
  void MaybeProgress(uint64_t seq);
  void HelpLaggard(NodeId peer, uint64_t seq);
  void DeliverReady();
  void RetransmitTick();

  Env* env_;
  Node* owner_;
  Config config_;
  SendFn send_;
  DeliverFn deliver_;

  bool started_ = false;
  uint64_t next_seq_ = 1;  // primary only
  uint64_t delivered_seq_ = 0;
  std::map<uint64_t, Instance> instances_;
  // Pending local submissions awaiting a pre-prepare (resubmitted on
  // timeout; dedup at the primary by (origin, local_id)).
  uint64_t next_local_id_ = 1;
  std::map<uint64_t, Bytes> pending_;
  std::map<std::pair<NodeId, uint64_t>, uint64_t> assigned_;

  uint64_t messages_sent_ = 0;
  uint64_t auth_ops_ = 0;
};

}  // namespace sdr

#endif  // SDR_BENCH_BASELINES_BFT_ORDER_H_
