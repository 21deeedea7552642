// The cluster harness: builds a full deployment — directory, masters,
// auditor, slaves, clients — on the simulated network from the same
// DeploymentPlan real processes use (src/runtime/deployment.h), adds the
// optional client fleet, and (optionally) validates every client-accepted
// read against ground truth. This is the entry point examples, integration
// tests and benchmarks use.
#ifndef SDR_SRC_CORE_CLUSTER_H_
#define SDR_SRC_CORE_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/core/auditor.h"
#include "src/core/client.h"
#include "src/core/directory.h"
#include "src/core/master.h"
#include "src/core/shard.h"
#include "src/core/slave.h"
#include "src/runtime/deployment.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/trace/trace.h"
#include "src/workload/fleet.h"
#include "src/workload/workload.h"

namespace sdr {

// Observability knobs. Tracing is off by default: with `enabled` false the
// cluster never creates a TraceSink, the simulator's trace() stays null, and
// every instrumentation site reduces to one untaken branch.
struct TraceConfig {
  bool enabled = false;
  size_t capacity = 1 << 20;  // ring-buffer event capacity
  bool sim_spans = false;     // wrap every simulator event in a span (verbose)
};

// The roster half (counts, shards, keys' root seed, corpus, protocol and
// cost parameters, slave behaviour, auditor settings) is the
// DeploymentConfig the plan is built from; the rest is simulation only.
struct ClusterConfig : DeploymentConfig {
  ClusterConfig() {
    num_masters = 2;
    num_clients = 4;
  }

  // Simulated-client fleet (src/workload/fleet.h): one multiplexing node,
  // appended last in the roster, modeling `fleet_clients` open-loop
  // clients. 0 = no fleet node (classic roster, byte-identical).
  int fleet_clients = 0;
  double fleet_reads_per_second = 1.0;
  double fleet_write_fraction = 0.0;

  LinkModel default_link = LinkModel{5 * kMillisecond, 2 * kMillisecond, 0.0};

  // The simulated load shape, applied on top of ClientOptionsFor (think
  // time and write fraction are in DeploymentConfig); customize per client
  // via tweak_client.
  Client::LoadMode client_mode = Client::LoadMode::kManual;
  double client_reads_per_second = 2.0;
  std::function<double(SimTime)> client_rate_multiplier;
  std::function<void(int index, Client::Options&)> tweak_client;

  // Validate accepted reads against ground truth (costs host CPU).
  bool track_ground_truth = true;

  TraceConfig trace;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  // Advances virtual time by `duration`, firing registered tick hooks on
  // their cadence along the way.
  void RunFor(SimTime duration);

  // Registers `hook` to run every `period` of virtual time during RunFor.
  // Hooks run outside any simulator event, so they observe a quiescent
  // cluster; the chaos engine drives its invariant checkers through this.
  void AddTickHook(SimTime period, std::function<void()> hook);

  // One record per client-accepted read, emitted to on_accepted_read.
  // `checked`/`wrong` are filled only when ground-truth tracking is on.
  struct AcceptedRead {
    int client_index = 0;
    NodeId slave = kInvalidNode;
    uint64_t version = 0;
    SimTime token_timestamp = 0;  // master clock when the token was signed
    SimTime accepted_at = 0;
    bool checked = false;
    bool wrong = false;
  };
  std::function<void(const AcceptedRead&)> on_accepted_read;

  // True when any master (alive or crashed) has excluded `slave`.
  bool ExcludedByAnyMaster(NodeId slave) const;

  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  // Null unless config.trace.enabled.
  TraceSink* trace() { return trace_sink_.get(); }
  Directory& directory() { return *directory_; }
  Master& master(int i) { return *masters_[i]; }
  Auditor& auditor(int i = 0) { return *auditors_[i]; }
  Slave& slave(int i) { return *slaves_[i]; }
  Client& client(int i) { return *clients_[i]; }
  int num_masters() const { return static_cast<int>(masters_.size()); }
  int num_auditors() const { return static_cast<int>(auditors_.size()); }
  int num_slaves() const { return static_cast<int>(slaves_.size()); }
  int num_clients() const { return static_cast<int>(clients_.size()); }

  // Sharding topology. The flat accessors above stay valid in sharded
  // runs: nodes are laid out shard-major, so shard s owns masters
  // [s*masters_per_shard, ...), auditors and slaves likewise.
  int num_shards() const { return plan_.num_shards(); }
  int masters_per_shard() const { return plan_.masters_per_shard(); }
  int auditors_per_shard() const { return plan_.auditors_per_shard(); }
  int slaves_per_shard() const { return plan_.slaves_per_shard(); }
  // Which shard a (master) node serves; 0 for unknown ids.
  int shard_of_master(NodeId master) const;
  // Trivial (one shard, no boundaries) unless config.num_shards > 1.
  const ShardMap& shard_map() const { return plan_.shard_map; }
  // Null unless config.fleet_clients > 0.
  ClientFleet* fleet() { return fleet_.get(); }

  const ContentIdentity& content() const { return plan_.content; }
  const ClusterConfig& config() const { return config_; }

  // Every fork-evidence chain assembled anywhere in the cluster (clients
  // and auditors), in emission order. Empty unless fork_check_enabled.
  const std::vector<EvidenceChain>& fork_evidence() const {
    return fork_evidence_;
  }

  // Ground-truth accounting (only meaningful with track_ground_truth).
  uint64_t accepted_checked() const { return accepted_checked_; }
  uint64_t accepted_wrong() const { return accepted_wrong_; }
  uint64_t accepted_uncheckable() const { return accepted_uncheckable_; }

  // Per-role sums over nodes (src/core/metrics.h Accumulate), for reports,
  // benches and quick assertions.
  struct Totals {
    ClientMetrics clients;
    MasterMetrics masters;
    SlaveMetrics slaves;
    AuditorMetrics auditors;
    ClientFleet::Metrics fleet;
  };
  // Every node of each role, the fleet node included.
  Totals ComputeTotals() const;
  // Shard `shard`'s masters, slaves and auditors; clients and the fleet
  // span every shard, so those two stay empty.
  Totals ComputeShardTotals(int shard) const;

 private:
  void OnClientAccept(int client_index, const Query& query,
                      const Pledge& pledge, const QueryResult& result);
  void ValidateAcceptedRead(const Query& query, uint64_t version,
                            const QueryResult& result, int shard,
                            AcceptedRead* record);

  struct TickHook {
    SimTime period;
    SimTime next_due;
    std::function<void()> fn;
  };
  std::vector<TickHook> tick_hooks_;

  ClusterConfig config_;
  Simulator sim_;
  // Owned here, surfaced to nodes through Simulator::trace(); must outlive
  // every node, so it sits next to sim_ above the node containers.
  std::unique_ptr<TraceSink> trace_sink_;
  Network net_;
  // Built from sim_'s stream after net_'s fork.
  DeploymentPlan plan_;

  std::unique_ptr<Directory> directory_;
  std::vector<std::unique_ptr<Master>> masters_;
  std::vector<std::unique_ptr<Auditor>> auditors_;
  std::vector<std::unique_ptr<Slave>> slaves_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<ClientFleet> fleet_;

  QueryExecutor truth_executor_;
  uint64_t accepted_checked_ = 0;
  uint64_t accepted_wrong_ = 0;
  uint64_t accepted_uncheckable_ = 0;
  std::vector<EvidenceChain> fork_evidence_;
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_CLUSTER_H_
