// The master server: a trusted host directly controlled by the content
// owner (paper Section 2). Masters
//   - serialize writes through the total-order broadcast and commit them
//     with at least max_latency between consecutive commits (Section 3.1);
//   - lazily push each commit to their slave set as one certified run of
//     versions (head token + BatchCommit), plus periodic signed keep-alive
//     version tokens, re-pushing versions a slave's acks show missing as
//     one certified run unless they were sent within the last keepalive
//     period (an ack racing an in-flight update re-signs nothing);
//   - set up clients (verify, assign a read set of slaves, hand over their
//     certificates);
//   - serve probabilistic double-check requests, with greedy-client
//     policing (Section 3.3);
//   - take corrective action on incriminating pledges: verify the proof,
//     exclude the slave, reassign its clients (Section 3.5);
//   - gossip their slave lists so that when a master crashes the survivors
//     divide its slave set (Section 3).
#ifndef SDR_SRC_CORE_MASTER_H_
#define SDR_SRC_CORE_MASTER_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/broadcast/total_order.h"
#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/core/metrics.h"
#include "src/core/service_queue.h"
#include "src/runtime/env.h"
#include "src/store/executor.h"
#include "src/store/oplog.h"

namespace sdr {

class Master : public Node {
 public:
  struct Options {
    ProtocolParams params;
    CostModel cost;
    KeyPair key_pair;
    ContentIdentity content;
    std::vector<NodeId> group;  // total-order group: all masters + auditor
    // The elected auditors (Section 3.4 allows "extra auditors"); pledges
    // for a slave go to auditors[slave % auditors.size()].
    std::vector<NodeId> auditors;
    // Public keys of every master in the group (for verifying version
    // tokens embedded in pledges from other masters' slaves).
    std::map<NodeId, Bytes> master_keys;
    // Client ids allowed to write; empty set = every client may write.
    std::set<NodeId> writers;
    uint64_t snapshot_interval = 16;
    TotalOrderBroadcast::Config broadcast;  // group is filled from `group`
  };

  explicit Master(Options options);

  void Start() override;
  void HandleMessage(NodeId from, const Payload& payload) override;

  // Pre-start wiring by the content owner / harness.
  void AddSlave(const Certificate& cert);
  void SetBaseContent(const DocumentStore& base);

  // Accessors for tests and benchmarks.
  uint64_t version() const { return oplog_.head_version(); }
  const OpLog& oplog() const { return oplog_; }
  const MasterMetrics& metrics() const {
    metrics_.sig_cache_hits = verify_cache_.stats().hits;
    metrics_.sig_cache_misses = verify_cache_.stats().misses;
    metrics_.sig_cache_keys_prepared = verify_cache_.stats().keys_prepared;
    return metrics_;
  }
  const Bytes& public_key() const { return signer_.public_key(); }
  // sdrlint:allow(R9 tests compare read sets across runtimes)
  std::vector<Certificate> my_slave_certs() const {
    std::vector<Certificate> certs;
    for (const auto& [slave_id, state] : my_slaves_) {
      certs.push_back(state.cert);
    }
    return certs;
  }
  // sdrlint:allow(R9 tests and E9 check slave adoption after failover)
  std::vector<NodeId> my_slave_ids() const {
    std::vector<NodeId> ids;
    for (const auto& [slave_id, state] : my_slaves_) {
      ids.push_back(slave_id);
    }
    return ids;
  }
  bool IsExcluded(NodeId slave) const { return excluded_.count(slave) > 0; }
  // sdrlint:allow(R9 tests check failure detection)
  const std::set<NodeId>& dead_masters() const { return dead_masters_; }

 private:
  struct SlaveState {
    Certificate cert;
    // Highest version pushed to this slave and when, so an ack that races
    // a state update does not re-sign versions still in flight (see
    // HandleSlaveAck).
    uint64_t sent_version = 0;
    SimTime sent_time = 0;
    // The crashed master this slave was adopted from (kInvalidNode if the
    // slave was originally assigned to us); yielded back on resurrection.
    NodeId adopted_from = kInvalidNode;
  };

  // Message handlers.
  void HandleClientHello(NodeId from, BytesView body);
  void HandleWriteRequest(NodeId from, BytesView body);
  void HandleDoubleCheck(NodeId from, BytesView body);
  void HandleAccusation(NodeId from, BytesView body);
  // Fork evidence (src/forkcheck/): two signed version vectors claiming the
  // same version with different chain heads. Verified entirely offline
  // against the content key — no re-execution — then punished like a
  // confirmed accusation.
  void HandleForkEvidence(NodeId from, BytesView body);
  void HandleSlaveAck(NodeId from, BytesView body);

  // Total-order deliveries.
  void OnDelivered(uint64_t seq, NodeId origin, const Bytes& payload);
  void OnTobWriteBundle(TobWriteBundle bundle);
  void OnTobGossip(const TobGossip& gossip);

  // Write pipeline: delivered bundles queue up and commit spaced by
  // max_latency. A whole bundle occupies one commit slot, so throughput
  // rises to commit_batch / max_latency while the inconsistency-window
  // bound is untouched.
  void PumpCommitQueue();
  void CommitBundle(const std::vector<TobWrite>& writes);

  // Origin side: accumulate until commit_batch writes or commit_window
  // elapse, then broadcast one bundle.
  void FlushBundle();

  // Slave management. CertifiedRun builds the one state-update message
  // for versions [first_version, last_version] (two signatures: the head
  // token and the BatchCommit); PushRun sends it to one slave.
  Payload CertifiedRun(uint64_t first_version, uint64_t last_version);
  void PushRun(NodeId slave, SlaveState& state, const Payload& wire,
               uint64_t last_version);
  void SendKeepAlives();
  void GossipTick();
  void CheckPeerLiveness();
  void AdoptOrphanedSlaves(NodeId dead_master);
  VersionToken CurrentToken();

  NodeId AuditorFor(NodeId slave) const;
  // Corrective action (Section 3.5). What a pledge offered as proof of a
  // lie turned out to be:
  //   kConfirmed: it proves the slave guilty, and the slave was excluded
  //     (or the proof sent to its owner, or exclusion is off);
  //   kRepeat: it proves guilty a slave this master had already excluded;
  //   kUnfounded: it proves nothing (bad signature or token, or the pledged
  //     hash is the true one).
  // `trace_id` is the causal chain the incriminating pledge arrived on
  // (0 when untraced); it is threaded through to the exclusion verdict and
  // the resulting Reassignment messages so sdrtrace can show the full
  // evidence path.
  enum class Incrimination { kConfirmed, kRepeat, kUnfounded };
  Incrimination ProcessIncriminatingPledge(const Pledge& pledge,
                                           uint64_t trace_id = 0);
  void ExcludeSlave(NodeId slave, uint64_t trace_id = 0);
  void RemoveSlaveAndReassignClients(NodeId slave, bool excluded,
                                     uint64_t trace_id = 0);
  // Fills `set` up to read_fanout members (see the .cc for the policy).
  void PickSlavesFor(std::vector<NodeId>& set) const;
  // The signed form of a read set: each member's certificate and auditor.
  std::vector<AssignedSlave> AssignmentOf(const std::vector<NodeId>& set);

  // Greedy-client policing: token bucket per client.
  bool AllowDoubleCheck(NodeId client);

  Options options_;
  Signer signer_;
  Rng rng_;
  std::unique_ptr<TotalOrderBroadcast> broadcast_;
  std::unique_ptr<ServiceQueue> queue_;

  OpLog oplog_;
  QueryExecutor executor_;
  SimTime last_commit_time_;
  // One queue entry per commit slot: a delivered bundle.
  std::deque<std::vector<TobWrite>> commit_queue_;
  bool commit_timer_armed_ = false;
  std::vector<TobWrite> bundle_;  // origin-side accumulation
  bool bundle_timer_armed_ = false;

  std::map<NodeId, SlaveState> my_slaves_;
  std::set<NodeId> excluded_;  // by this master
  // Excluded by a peer master, learned from its gossip. Never adopted when
  // that peer crashes; IsExcluded still reports only this master's own.
  std::set<NodeId> peer_excluded_;
  // Write dedup: committed (client, request_id) -> version, and requests
  // currently in flight through the broadcast.
  std::map<std::pair<NodeId, uint64_t>, uint64_t> committed_writes_;
  std::set<std::pair<NodeId, uint64_t>> pending_writes_;
  std::map<NodeId, std::vector<NodeId>> client_slaves_;  // client -> read set
  uint64_t assignment_seq_ = 0;  // the last read set signed, hello or move
  std::map<NodeId, NodeId> slave_owner_;       // global gossip view
  std::map<NodeId, Certificate> known_slave_certs_;  // global gossip view
  std::map<NodeId, SimTime> peer_last_gossip_;
  std::set<NodeId> dead_masters_;

  struct Bucket {
    double tokens = 0;
    SimTime last_refill = 0;
  };
  std::map<NodeId, Bucket> greedy_buckets_;

  // Deduplicates repeated verifications when the same incriminating pledge
  // or token is presented more than once.
  VerifyCache verify_cache_;
  mutable MasterMetrics metrics_;
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_MASTER_H_
