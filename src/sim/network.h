// Simulated message network: nodes exchange opaque byte messages over links
// with configurable latency, jitter, and loss. Nodes can be taken down
// (crash) and pairs of nodes can be partitioned.
//
// Registration owns the substrate wiring: AddNode creates a per-node SimEnv
// (the Env adapter over this network and its simulator) and binds it to the
// node, so role code written against Env runs here unchanged.
//
// Hot-path layout: payloads are ref-counted (Payload), so a send shares the
// buffer with the in-flight event and the receiver instead of copying it;
// link and partition lookups hit flat per-pair tables (rebuilt on AddNode /
// SetLink) instead of std::map/std::set.
#ifndef SDR_SRC_SIM_NETWORK_H_
#define SDR_SRC_SIM_NETWORK_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/runtime/env.h"
#include "src/sim/simulator.h"
#include "src/util/bytes.h"

namespace sdr {

class SimEnv;

// Latency/loss model for one direction of a link.
struct LinkModel {
  SimTime base_latency = 5 * kMillisecond;
  SimTime jitter = 2 * kMillisecond;  // uniform in [0, jitter]
  double drop_probability = 0.0;

  // Sugar for a LAN-ish link.
  static LinkModel Lan() { return {500 * kMicrosecond, 200 * kMicrosecond, 0.0}; }
  // Cross-continent WAN link.
  static LinkModel Wan() { return {40 * kMillisecond, 10 * kMillisecond, 0.0}; }

  bool operator==(const LinkModel&) const = default;
};

class Network {
 public:
  Network(Simulator* sim, LinkModel default_link);
  ~Network();

  // Registers a node (not owned), assigns it an id, and binds a SimEnv
  // (owned by the network) to it.
  NodeId AddNode(Node* node);

  Node* node(NodeId id) const;
  size_t node_count() const { return nodes_.size(); }

  // Calls Start() on every registered node.
  void StartAll();

  // Overrides the link model for the (from, to) direction.
  void SetLink(NodeId from, NodeId to, LinkModel model);
  // Overrides the model for both directions.
  void SetLinkSymmetric(NodeId a, NodeId b, LinkModel model);

  // Sends `payload` from `from` to `to`. Messages from/to down nodes and
  // across partitions are silently dropped, as are random losses. The
  // payload buffer is shared, not copied — fanning one encoded message out
  // to N peers costs N refcount bumps.
  void Send(NodeId from, NodeId to, Payload payload);

  // Crash / restart a node. Messages in flight toward a down node are
  // dropped at delivery time.
  void SetNodeUp(NodeId id, bool up);

  // Blocks (or unblocks) both directions between a and b.
  void SetPartitioned(NodeId a, NodeId b, bool partitioned);
  // Removes every partition at once (a chaos scenario's "heal all").
  void ClearPartitions();
  // Number of currently partitioned node pairs (0 = fully connected).
  size_t active_partitions() const { return partitions_.size(); }

  // Traffic counters (for benches: bytes on the wire per protocol).
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t messages_dropped() const {
    return dropped_node_ + dropped_partition_ + dropped_loss_;
  }
  // Drop breakdown: sender/receiver missing or down; active partition;
  // random link loss.
  uint64_t messages_dropped_node() const { return dropped_node_; }
  uint64_t messages_dropped_partition() const { return dropped_partition_; }
  uint64_t messages_dropped_loss() const { return dropped_loss_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  const LinkModel& LinkFor(NodeId from, NodeId to) const {
    size_t n = nodes_.size();
    if (from == kInvalidNode || to == kInvalidNode || from > n || to > n) {
      return default_link_;
    }
    return link_table_[(from - 1) * n + (to - 1)];
  }
  bool PartitionedFast(NodeId a, NodeId b) const {
    return partition_table_[(a - 1) * nodes_.size() + (b - 1)] != 0;
  }
  // Re-derives the flat per-pair tables from links_/partitions_ after the
  // node count grows.
  void RebuildTables();

  Simulator* sim_;
  LinkModel default_link_;
  Rng rng_;
  std::vector<Node*> nodes_;  // index = id - 1
  // One SimEnv per registered node, same index; must outlive the delivery
  // events that reference the nodes, which the simulator guarantees.
  std::vector<std::unique_ptr<SimEnv>> envs_;
  // Source of truth for custom links/partitions (covers ids not yet
  // registered); the flat tables below are the per-send fast path.
  std::map<std::pair<NodeId, NodeId>, LinkModel> links_;
  std::set<std::pair<NodeId, NodeId>> partitions_;  // normalized (min,max)
  std::vector<LinkModel> link_table_;       // n*n, [from-1][to-1]
  std::vector<uint8_t> partition_table_;    // n*n, symmetric

  uint64_t messages_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t dropped_node_ = 0;
  uint64_t dropped_partition_ = 0;
  uint64_t dropped_loss_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace sdr

#endif  // SDR_SRC_SIM_NETWORK_H_
