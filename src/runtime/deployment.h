// The roster: who is in a deployment and what each node starts with. One
// (config, root stream) pair fixes every node id, key pair, certificate,
// the initial corpus, its shard split and the signed placement; both the
// simulator's Cluster and real processes (sdrnode) build their nodes from
// this plan through the role factories below. This is a provisioning
// stand-in: production would distribute real keys out of band; the
// *protocol* trust story is unchanged either way because every key still
// only ever lives with its owner role in a real deployment (deriving all of
// them here is a convenience the harnesses exploit).
//
// Roster layout, shard-major within each role (S shards, M masters,
// A auditors and M*P slaves per shard, C clients):
//   id 1                          directory
//   ids 2 .. 1+S*M                masters
//   then S*A auditors
//   then S*M*P slaves (grouped by owning master), then C clients.
// The same config gives the same ids everywhere. Keys and corpus come from
// the root stream: a real deployment roots it at Rng(seed), the simulator
// at its own stream after its network's fork, so the two draw different
// keys from one seed.
//
// Also here: the node-config grammar sdrnode consumes and sdrcluster
// emits — a line-oriented `key value` format (see ParseNodeConfig).
#ifndef SDR_SRC_RUNTIME_DEPLOYMENT_H_
#define SDR_SRC_RUNTIME_DEPLOYMENT_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/auditor.h"
#include "src/core/client.h"
#include "src/core/config.h"
#include "src/core/directory.h"
#include "src/core/master.h"
#include "src/core/shard.h"
#include "src/core/slave.h"
#include "src/runtime/env.h"
#include "src/store/document_store.h"
#include "src/trace/trace.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"

namespace sdr {

// The tuple every node of a deployment must agree on.
struct DeploymentConfig {
  uint64_t seed = 1;
  int num_masters = 1;       // serving masters (auditors are additional)
  int num_auditors = 1;      // Section 3.4: "add extra auditors" to scale
  int slaves_per_master = 2;
  int num_clients = 1;

  // Keyspace sharding (src/core/shard.h). 1 = the paper's single group.
  // Above 1 the plan holds one independent group (num_masters masters +
  // num_auditors auditors + their slaves) per shard, splits the corpus by
  // a directory-published signed placement, and every client runs one
  // lane per shard. All counts above except num_clients are per shard.
  int num_shards = 1;

  ProtocolParams params;
  CostModel cost;
  CorpusConfig corpus;
  QueryMix mix;
  WriteGen write_gen;

  // Client load shape (closed-loop in real deployments).
  SimTime client_think_time = 100 * kMillisecond;
  double client_write_fraction = 0.0;

  // Behaviour by global slave index (default honest).
  std::function<Slave::Behavior(int index)> slave_behavior;

  // The auditor's result cache (Section 3.4 "query optimization"); E5
  // ablates it.
  bool auditor_use_cache = true;

  // Host worker lanes for the auditor's re-execution engine. Purely a
  // host-CPU knob: every protocol-visible output is identical at any value.
  int audit_jobs = 1;

  uint64_t snapshot_interval = 16;
  TotalOrderBroadcast::Config broadcast;
};

enum class NodeKind : uint8_t {
  kDirectory = 0,
  kMaster = 1,
  kAuditor = 2,
  kSlave = 3,
  kClient = 4,
};

const char* NodeKindName(NodeKind kind);
TraceRole TraceRoleOf(NodeKind kind);

// Everything derivable from a DeploymentConfig and a root stream. Holds
// every role's private key — callers building a single node use only their
// own (see file comment). Role arrays are flat and shard-major: shard s owns
// masters [s*M, (s+1)*M), auditors and slaves likewise.
struct DeploymentPlan {
  DeploymentConfig config;

  ContentIdentity content;
  NodeId directory_id = 1;
  std::vector<NodeId> master_ids;
  std::vector<NodeId> auditor_ids;
  std::vector<NodeId> slave_ids;
  std::vector<NodeId> client_ids;

  std::vector<KeyPair> master_keys;
  std::vector<KeyPair> auditor_keys;
  std::vector<KeyPair> slave_keys;
  std::map<NodeId, Bytes> master_key_map;  // every shard's masters
  std::vector<Certificate> master_certs;   // issued by the content owner
  // slave_certs[i] is issued by the owning master (OwnerMasterOf(i)).
  std::vector<Certificate> slave_certs;

  // Per shard: its masters' keys and certificates.
  std::vector<std::map<NodeId, Bytes>> shard_master_keys;
  std::vector<std::vector<Certificate>> shard_master_certs;

  DocumentStore base;  // the whole initial content at version 0
  // Trivial (one shard, no boundaries) at one shard, where shard_base stays
  // empty and every server starts from `base`; above one shard, each
  // shard's slice of `base` and the content-signed placement.
  ShardMap shard_map;
  std::vector<DocumentStore> shard_base;
  std::optional<ShardPlacement> placement;

  int num_nodes() const {
    return 1 + static_cast<int>(master_ids.size() + auditor_ids.size() +
                                slave_ids.size() + client_ids.size());
  }
  int num_shards() const { return std::max(1, config.num_shards); }
  int masters_per_shard() const { return config.num_masters; }
  int auditors_per_shard() const {
    return static_cast<int>(auditor_ids.size()) / num_shards();
  }
  int slaves_per_shard() const {
    return config.num_masters * config.slaves_per_master;
  }
  NodeKind KindOf(NodeId id) const;
  // Index within the node's role group (master 0.., slave 0.., ...).
  int RoleIndexOf(NodeId id) const;
  int OwnerMasterOf(int slave_index) const {
    return slave_index / config.slaves_per_master;
  }
  const DocumentStore& BaseFor(int shard) const {
    return shard_base.empty() ? base : shard_base[shard];
  }
};

// Roots the key and corpus draws at Rng(config.seed).
DeploymentPlan BuildDeployment(const DeploymentConfig& config);
// Forks the key stream, then the corpus stream, off `root`.
DeploymentPlan BuildDeployment(const DeploymentConfig& config, Rng& root);

// Role option factories; index is the flat role-group index. Query/write
// sources for clients come from the plan's mix/write_gen.
Master::Options MasterOptionsFor(const DeploymentPlan& plan, int index);
Auditor::Options AuditorOptionsFor(const DeploymentPlan& plan, int index);
Slave::Options SlaveOptionsFor(const DeploymentPlan& plan, int slave_index);
Client::Options ClientOptionsFor(const DeploymentPlan& plan, int client_index,
                                 Client::LoadMode mode);

// One roster node; exactly one role pointer is set, and `node` points at it.
struct PlanNode {
  std::unique_ptr<Directory> directory;
  std::unique_ptr<Master> master;
  std::unique_ptr<Auditor> auditor;
  std::unique_ptr<Slave> slave;
  std::unique_ptr<Client> client;
  Node* node = nullptr;
};

// Builds roster node `id` from the factories above, hands it to `attach`
// (which must bind it to its environment under `id`), then installs what
// it starts with: the directory's certificates and placement, a master's
// slave certificates, a server's shard of the base content. Clients run
// closed-loop, as real deployments do.
PlanNode BuildPlanNode(const DeploymentPlan& plan, NodeId id,
                       const std::function<void(Node*)>& attach);

// --- Node config file (sdrnode input, sdrcluster output). ---
//
// Line-oriented `key value...` pairs; '#' starts a comment. Keys:
//   node_id N            this process's node id (required)
//   seed N               deployment seed (required)
//   masters N / auditors N / slaves_per_master N / clients N
//   items N              corpus size
//   max_latency_ms N / keepalive_ms N / double_check_p X / think_ms N
//   write_fraction X / lie_probability X (slaves pick it up by index)
//   liar_index N         global slave index that lies (-1 = none)
//   epoch_us N           shared cluster epoch (CLOCK_REALTIME microseconds)
//   start_delay_ms N     defer this node's Start() after its env comes up
//   listen HOST:PORT     this node's listen address
//   peer ID HOST:PORT    one line per peer this node talks to
struct NodeConfig {
  NodeId node_id = kInvalidNode;
  DeploymentConfig deployment;
  int liar_index = -1;
  double lie_probability = 1.0;
  int64_t epoch_us = 0;
  int64_t start_delay_ms = 0;
  std::string listen_host = "127.0.0.1";
  uint16_t listen_port = 0;
  struct PeerAddr {
    NodeId id;
    std::string host;
    uint16_t port;
  };
  std::vector<PeerAddr> peers;
};

Result<NodeConfig> ParseNodeConfig(const std::string& text);
std::string FormatNodeConfig(const NodeConfig& config);

}  // namespace sdr

#endif  // SDR_SRC_RUNTIME_DEPLOYMENT_H_
