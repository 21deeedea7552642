// A memory-lean client fleet: ONE network node multiplexing up to millions
// of simulated open-loop clients. The simulated network keeps flat n-by-n
// state, so modeling 10^6 clients as real nodes is infeasible; the fleet
// instead superposes their Poisson arrival streams into one exponential
// stream at rate num_clients * reads_per_second and keeps ~16 bytes of
// arena state per client (a SplitMix64 stream that seeds a fresh xoshiro
// generator per operation, so each client's op sequence is deterministic
// and independent of interleaving).
//
// The fleet models the steady-state read/write path only:
//   - certificates and keys are wired directly by the harness (the hello
//     storm of 10^6 setups is not what the scale sweep measures),
//   - every reply still runs the paper's full client-side verification
//     (result hash, pledge + token signatures via a shared verify cache,
//     freshness window), and accepted pledges are forwarded to the
//     auditor when auditing is on,
//   - probabilistic double-checks and retries are left to the full Client
//     (which exercises them under chaos); a fleet op that times out or
//     fails any check simply counts as failed.
// Multi-shard reads fan out one leg per planned subquery and count
// accepted only when every leg verifies; merged results are not
// materialized (the sweep measures the read path, not result plumbing).
#ifndef SDR_SRC_WORKLOAD_FLEET_H_
#define SDR_SRC_WORKLOAD_FLEET_H_

#include <functional>
#include <map>
#include <vector>

#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/core/metrics.h"
#include "src/core/shard.h"
#include "src/runtime/env.h"
#include "src/store/document_store.h"
#include "src/store/query.h"
#include "src/trace/histogram.h"
#include "src/util/rng.h"

namespace sdr {

// ClientFleet::Metrics, declared the way src/core/metrics.h declares the
// role structs.
#define SDR_FLEET_METRICS(X)                                                 \
  X(uint64_t, reads_issued)                                                  \
  X(uint64_t, reads_accepted)                                                \
  X(uint64_t, reads_failed)  /* decline, bad check, or timeout */            \
  X(uint64_t, subreads_sent) /* legs, >= reads_issued when sharded */        \
  X(uint64_t, writes_issued)                                                 \
  X(uint64_t, writes_committed)                                              \
  X(uint64_t, writes_failed)                                                 \
  X(uint64_t, pledges_forwarded)                                             \
  X(uint64_t, sig_cache_hits)                                                \
  X(uint64_t, sig_cache_misses)                                              \
  X(uint64_t, sig_cache_keys_prepared)                                       \
  X(LatencyHistogram, read_rtt_us)                                           \
  X(LatencyHistogram, write_rtt_us)

class ClientFleet : public Node {
 public:
  struct Options {
    ProtocolParams params;
    size_t num_clients = 1000;
    double reads_per_second = 1.0;  // per simulated client
    double write_fraction = 0.0;
    std::function<Query(Rng&)> query_source;       // required
    std::function<WriteBatch(Rng&)> write_source;  // required if writing
    uint64_t rng_seed = 1;

    // Wiring, one entry per shard (a single entry = the classic one-group
    // deployment). Reads pick a uniform slave from the owning shard's
    // set; writes go to a uniform master of that shard.
    struct ShardWiring {
      std::vector<Certificate> slave_certs;
      std::vector<NodeId> masters;
      NodeId auditor = kInvalidNode;
    };
    ShardMap shard_map;  // default-constructed = one shard
    std::vector<ShardWiring> shards;
    std::map<NodeId, Bytes> master_keys;
  };

  struct Metrics {
    SDR_METRICS_STRUCT(Metrics, SDR_FLEET_METRICS)
  };

  explicit ClientFleet(Options options);

  void Start() override;
  void HandleMessage(NodeId from, const Payload& payload) override;

  const Metrics& metrics() const {
    metrics_.sig_cache_hits = verify_cache_.stats().hits;
    metrics_.sig_cache_misses = verify_cache_.stats().misses;
    metrics_.sig_cache_keys_prepared = verify_cache_.stats().keys_prepared;
    return metrics_;
  }
  size_t num_clients() const { return options_.num_clients; }

 private:
  // One multiplexed operation (possibly several legs when sharded).
  struct Op {
    SimTime issued = 0;
    uint32_t remaining = 0;
    bool is_write = false;
    EventId timeout = 0;
    std::vector<uint64_t> subs;  // outstanding sub-request ids
  };
  struct SubRead {
    uint64_t op = 0;
    uint32_t shard = 0;
    NodeId slave = kInvalidNode;
  };

  void ScheduleArrival();
  void DispatchOp();
  void IssueFleetRead(Rng& op_rng);
  void IssueFleetWrite(Rng& op_rng);
  void HandleReadReply(NodeId from, BytesView body);
  void HandleWriteReply(BytesView body);
  void FailOp(uint64_t op_id);
  void FinishOp(uint64_t op_id, bool ok);
  const Certificate* SlaveCert(uint32_t shard, NodeId slave) const;

  Options options_;
  Rng rng_;  // arrival stream + client picks
  // Per-client SplitMix64 streams: 8 bytes per simulated client.
  std::vector<uint64_t> client_state_;

  uint64_t next_op_id_ = 1;
  uint64_t next_request_id_ = 1;
  std::map<uint64_t, Op> ops_;
  std::map<uint64_t, SubRead> subreads_;
  std::map<uint64_t, uint64_t> subwrites_;  // request id -> op id

  VerifyCache verify_cache_;
  mutable Metrics metrics_;
};

}  // namespace sdr

#endif  // SDR_SRC_WORKLOAD_FLEET_H_
