// The client (paper Sections 2, 3.2, 3.3): performs the setup phase
// through the directory and one master, then issues reads to its assigned
// read set and writes to its master. For every read it
//   - checks the result hash against the pledge,
//   - verifies the slave's pledge signature and the master's version-token
//     signature,
//   - enforces the freshness window (token no older than max_latency —
//     optionally a client-chosen value, Section 3.2's relaxed variant),
//   - with probability p double-checks the answer with the master, else
//     forwards the pledge to the auditor and only then accepts.
// On a double-check mismatch it forwards the incriminating pledge
// (immediate discovery, Section 3.5) and retries the read after the master
// reassigns it to a new slave. A silent master triggers a fresh setup
// (master crash, Section 3).
//
// The read set is the master's assignment: one slave in the paper's base
// protocol, read_fanout slaves in its Section 4 variant. Every read goes to
// the whole set and resolves when each member has answered or the timeout
// fires. Verified answers that agree take the base path above; answers
// that disagree force a double-check, after which the client accuses every
// other pledge the master's result convicts and accepts only an answer
// whose own pledge matches that result. A disagreement is never accepted
// on an unserved double-check or a silent master. Answers are compared
// only among the members that gave a verified answer in time: a member
// that declines or stays silent leaves the read to the base protocol's
// checks.
//
// Keyspace sharding generalises the paper's single group to one protocol
// lane (master + assigned read set) per shard. The paper's setup is
// the one-lane case: lane 0 draws its master from every certified master,
// with no placement fetch, and every operation is planned against the
// trivial one-shard map.
#ifndef SDR_SRC_CORE_CLIENT_H_
#define SDR_SRC_CORE_CLIENT_H_

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/core/metrics.h"
#include "src/forkcheck/fork.h"
#include "src/runtime/env.h"
#include "src/store/executor.h"
#include "src/store/query.h"

namespace sdr {

class Client : public Node {
 public:
  enum class LoadMode {
    kManual,      // the harness calls IssueRead/IssueWrite explicitly
    kClosedLoop,  // next operation `think_time` after the previous finishes
    kOpenLoop,    // Poisson arrivals at reads_per_second (x rate multiplier)
  };

  struct Options {
    ProtocolParams params;
    ContentIdentity content;
    NodeId directory = kInvalidNode;

    LoadMode mode = LoadMode::kManual;
    std::function<Query(Rng&)> query_source;       // required unless manual
    std::function<WriteBatch(Rng&)> write_source;  // required if writing
    SimTime think_time = 100 * kMillisecond;
    double reads_per_second = 1.0;
    // Optional diurnal shaping for open-loop arrivals (multiplies the rate).
    std::function<double(SimTime)> rate_multiplier;
    double write_fraction = 0.0;

    // A greedy client double-checks every read (Section 3.3's abuse case).
    bool greedy = false;
    // 0 = use params.max_latency; otherwise the client-chosen freshness
    // bound of the relaxed consistency variant.
    SimTime max_latency_override = 0;
    int max_read_retries = 8;
    SimTime retry_backoff = 200 * kMillisecond;
    uint64_t rng_seed = 1;

    // Peer clients for fork-consistency gossip (filled by the cluster
    // harness; may include this client's own id, which is skipped). Only
    // used when params.fork_check_enabled.
    std::vector<NodeId> peer_clients;

    // Keyspace sharding (src/core/shard.h): one lane per shard. At 1 (or 0)
    // the client runs the paper's single-group protocol. Above 1 the setup
    // phase additionally fetches the signed shard placement from the
    // directory, and every operation is planned against the cached
    // placement map.
    uint32_t num_shards = 1;
  };

  explicit Client(Options options);

  void Start() override;
  void HandleMessage(NodeId from, const Payload& payload) override;

  // Manual-mode entry points (also used internally by the load loops).
  // Completion callbacks are optional.
  using ReadCallback =
      std::function<void(bool accepted, const QueryResult& result)>;
  using WriteCallback = std::function<void(bool committed, uint64_t version)>;
  void IssueRead(Query query, ReadCallback cb = nullptr);
  void IssueWrite(WriteBatch batch, WriteCallback cb = nullptr);

  // Invoked on every accepted read with the full pledge — the harness uses
  // it to validate accepted results against ground truth and to feed the
  // chaos invariant checkers (which slave served, how fresh the token was).
  std::function<void(const Query&, const Pledge&, const QueryResult&)>
      on_accept;

  // Invoked when the auditor reports that a read this client already
  // accepted was wrong (delayed discovery, Section 3.5). The application
  // uses this to roll back whatever depended on the read.
  std::function<void(const Query&, uint64_t version)> on_bad_read;

  // Invoked on every fork-evidence chain this client assembles (divergent
  // signed chain heads for one slave + version). The harness collects
  // these for offline verification (sdrtrace --evidence).
  std::function<void(const EvidenceChain&)> on_evidence;

  bool ready() const { return phase_ == Phase::kReady; }
  NodeId master() const { return LaneFor(0).master; }
  // Lane 0's read set, in the master's order.
  const std::vector<AssignedSlave>& read_set() const {
    return LaneFor(0).slaves;
  }
  const ClientMetrics& metrics() const {
    metrics_.sig_cache_hits = verify_cache_.stats().hits;
    metrics_.sig_cache_misses = verify_cache_.stats().misses;
    metrics_.sig_cache_keys_prepared = verify_cache_.stats().keys_prepared;
    return metrics_;
  }
  SimTime effective_max_latency() const {
    return options_.max_latency_override > 0 ? options_.max_latency_override
                                             : options_.params.max_latency;
  }

 private:
  enum class Phase {
    kIdle,
    kAwaitDirectory,
    kAwaitPlacement,  // more than one lane: waiting for the placement map
    kAwaitHello,
    kReady,
  };

  // A verified answer from one read-set member, held until the read
  // resolves, with the auditor its pledge goes to.
  struct HeldReply {
    QueryResult result;
    Pledge pledge;
    std::optional<VersionVector> vv;
    NodeId auditor = kInvalidNode;
  };
  struct PendingRead {
    enum class Stage {
      kAwaitReplies,      // the current attempt is out to the read set
      kBackoff,           // a retry is scheduled; late replies are ignored
      kAwaitDoubleCheck,  // held[0] is out to the master
    };
    Query query;
    SimTime first_issued = 0;
    int attempts = 0;
    // The attempt's reply timeout, the scheduled retry while backing off,
    // or the double-check's timeout.
    EventId timeout = 0;
    ReadCallback cb;
    Stage stage = Stage::kAwaitReplies;
    // The current attempt: which members of the lane's read set have
    // replied (bit i = member i), the longest back-off a non-answer asked
    // for, and the verified answers in hand. Adopting a new read set
    // restarts the attempt. While a double-check is out, held[0] is the
    // pledge it carries. A fan-out of 1 holds an answer only then.
    uint64_t replied = 0;
    SimTime retry_delay = 0;
    std::vector<HeldReply> held;
    bool disagreement = false;  // the held answers differ
    uint64_t trace_id = 0;  // causal id spanning retries and double-checks
    // Which lane serves this read, and — when it is one leg of a
    // fanned-out multi-shard read — the parent id and leg index.
    uint32_t shard = 0;
    uint64_t parent = 0;  // 0 = standalone read
    uint32_t leg = 0;
  };
  struct PendingWrite {
    WriteBatch batch;
    SimTime first_issued = 0;
    int attempts = 0;
    EventId timeout = 0;
    WriteCallback cb;
    uint32_t shard = 0;
    uint64_t parent = 0;  // 0 = standalone write
  };

  // One per shard: the paper's per-group client state (chosen master and
  // the read set it assigned). The paper's single group is lane 0.
  struct Lane {
    NodeId master = kInvalidNode;
    std::vector<AssignedSlave> slaves;
    uint64_t seq = 0;   // of the adopted read set; 0 = none from `master`
    Bytes nonce;        // hello nonce for this lane's setup exchange
    bool ready = false;
  };

  // A read fanned out to several shards: legs accumulate here and the
  // merged result is released only when every leg has been individually
  // verified and accepted. Freshness of the merge is bounded by the
  // *oldest* per-shard token (recorded in merged_token_age_us).
  struct MultiRead {
    Query query;  // the original, pre-planning query
    std::vector<ShardSubquery> plan;
    std::vector<QueryResult> results;  // one slot per plan leg
    std::vector<Pledge> pledges;
    size_t remaining = 0;
    SimTime first_issued = 0;
    ReadCallback cb;
    uint64_t trace_id = 0;
    std::vector<uint64_t> sub_ids;
  };
  // A write batch split across shards; reports committed only if every
  // shard-local sub-batch commits. Shards commit independently, with no
  // cross-shard atomicity (docs/PROTOCOL.md, "Multi-shard writes").
  struct MultiWrite {
    size_t remaining = 0;
    bool all_ok = true;
    uint64_t max_version = 0;
    SimTime first_issued = 0;
    WriteCallback cb;
    uint64_t trace_id = 0;
  };

  // Setup phase.
  void BeginSetup();
  void HandleDirectoryReply(BytesView body);
  void HandleHelloReply(NodeId from, BytesView body);
  void HandleReassignment(NodeId from, BytesView body);
  void HandleBadReadNotice(BytesView body);
  void HandlePlacementReply(BytesView body);
  // Picks each lane's master from its candidates, avoiding the lane's
  // previous master, and sends the per-lane hellos.
  void OpenLanes(const std::vector<std::vector<NodeId>>& candidates);
  // Adopts a read set signed by `master_key` if it is non-empty, fits the
  // `replied` mask and every member is a slave certified by that master.
  // The callers check that the set is newer than the lane's.
  bool AdoptReadSet(Lane& lane, uint64_t seq,
                    const std::vector<AssignedSlave>& slaves,
                    const Bytes& master_key);

  uint32_t num_lanes() const { return std::max(options_.num_shards, 1u); }
  // The lane serving `shard`; an empty lane before setup has opened it.
  const Lane& LaneFor(uint32_t shard) const;
  // The map an operation is planned against: the cached placement
  // (counted as a placement-cache hit), the trivial map for one lane, or
  // null while a placement is still missing.
  const ShardMap* PlanningMap();

  // Reads. SendRead counts a new attempt and starts it; StartAttempt
  // sends the read to the lane's whole read set and arms the timeout.
  void SendRead(uint64_t request_id);
  void StartAttempt(uint64_t request_id, PendingRead& read);
  void HandleReadReply(NodeId from, BytesView body);
  // Runs one reply through VerifyRead; a verified answer's decoded result,
  // or nullopt for a non-answer (counted, and its back-off recorded).
  std::optional<QueryResult> CheckReply(PendingRead& read,
                                        const AssignedSlave& slave,
                                        const ReadReply& msg);
  // Every member has answered or the timeout fired: settle the held
  // answers if they agree, else double-check the first.
  void ResolveFanout(uint64_t request_id);
  // The base path for an agreed answer: the sampled (or greedy)
  // double-check, or forward the pledge to its auditor and accept.
  void SettleRead(uint64_t request_id, PendingRead& read, HeldReply answer);
  void SendDoubleCheck(uint64_t request_id, PendingRead& read);
  void HandleDoubleCheckReply(BytesView body);
  void AcceptHeld(uint64_t request_id, size_t index);
  // Ends the current attempt and schedules the next one.
  void RetryRead(uint64_t request_id, SimTime delay);
  void AcceptRead(uint64_t request_id, const QueryResult& result,
                  const Pledge& pledge);
  void FailRead(uint64_t request_id);

  // Multi-shard reads: leg accounting.
  void AcceptShardSubread(uint64_t request_id, const QueryResult& result,
                          const Pledge& pledge);
  void FailMultiRead(uint64_t parent_id);

  // Writes.
  void SendWrite(uint64_t request_id);
  void HandleWriteReply(BytesView body);

  // Load generation.
  void ScheduleNextOp();
  void IssueGeneratedOp();

  // Master-silence recovery.
  void MasterSuspect();

  // Fork-consistency checking (active only with params.fork_check_enabled).
  void ScheduleVvGossip();
  void GossipVvs();
  void HandleVvExchange(BytesView body);
  bool VerifyAttestedVv(const AttestedVv& avv);
  void ObserveVv(const AttestedVv& avv);
  void EmitForkEvidence(const ForkDetector::Conflict& conflict,
                        uint64_t trace_id);

  const Bytes* MasterKey(NodeId master) const;

  Options options_;
  Rng rng_;
  Phase phase_ = Phase::kIdle;

  std::vector<Certificate> master_certs_;
  EventId setup_timeout_ = 0;
  int setup_attempts_ = 0;

  // The verified placement (the client-side placement cache — every op
  // planned from it is a cache hit; every directory fetch a miss; never
  // fetched for one lane) and one lane per shard.
  std::optional<ShardPlacement> placement_;
  std::vector<Lane> lanes_;

  uint64_t next_request_id_ = 1;
  std::map<uint64_t, PendingRead> reads_;
  std::map<uint64_t, PendingWrite> writes_;
  std::map<uint64_t, MultiRead> multireads_;
  std::map<uint64_t, MultiWrite> multiwrites_;

  // Fork-consistency state: divergence detector over everything this
  // client has seen (own replies + gossip) and the freshest attested
  // vector per slave, re-gossiped each round.
  ForkDetector fork_detector_;
  std::map<NodeId, AttestedVv> latest_vv_;

  // Deduplicates signature verifications; the dominant hit source is the
  // version token, which is identical across every read until the master's
  // next keepalive. Counters are mirrored into metrics_ on access.
  VerifyCache verify_cache_;
  mutable ClientMetrics metrics_;
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_CLIENT_H_
