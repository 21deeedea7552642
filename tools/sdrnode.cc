// sdrnode — run ONE protocol role (directory, master, auditor, slave, or
// client) as a real OS process on the RealEnv transport. Every process in a
// deployment reads a small config file (see ParseNodeConfig in
// src/runtime/deployment.h) naming its node id, the shared deployment tuple
// (seed + counts — from which the full roster, keys, and corpus derive
// deterministically), its listen address, and its peers' addresses.
//
// The role code that runs here is the *same* code the simulator runs — the
// Env abstraction is the only seam. sdrcluster launches fleets of this
// binary for end-to-end real-transport runs.
//
// Reports: on SIGINT/SIGTERM the event loop exits cleanly and the process
// writes a final JSON report (sorted keys, byte-stable given identical
// counter values) whose per-role sections use the exact field names of
// `sdrsim --json`, so the same analysis scripts read both. With
// --stats_interval=N a compact one-line snapshot of the same report is
// printed to stdout every N seconds while running.
//
// Example (by hand; sdrcluster generates all of this):
//   cat > node5.conf <<EOF
//   node_id 5
//   seed 1
//   masters 1
//   clients 1
//   listen 127.0.0.1:7105
//   peer 1 127.0.0.1:7101
//   peer 2 127.0.0.1:7102
//   EOF
//   ./build/tools/sdrnode --config node5.conf --out node5.json
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include "src/core/directory.h"
#include "src/runtime/deployment.h"
#include "src/runtime/real_env.h"
#include "src/trace/export.h"
#include "src/util/file.h"
#include "src/util/flags.h"
#include "src/util/json.h"

using namespace sdr;

namespace {

// Signal handlers may only touch async-signal-safe state; RealEnv's
// RequestStop is exactly that (atomic flag + self-pipe write).
RealEnv* g_env = nullptr;

void OnSignal(int) {
  if (g_env != nullptr) {
    g_env->RequestStop();
  }
}

// Single-node report in the sdrsim --json shape: the same top-level
// sections and the same per-role field names, with the role arrays holding
// just this process's entry. Keys emit sorted (JsonValue is map-backed) so
// the dump is byte-stable for given counter values.
JsonValue NodeReport(const RealEnv& env, const DeploymentPlan& plan,
                     NodeKind kind, int index, const PlanNode& roles,
                     const TraceSink* sink) {
  JsonValue root = JsonValue::Object();
  root["wall_seconds"] = static_cast<double>(env.Now()) / kSecond;
  root["seed"] = plan.config.seed;
  root["node"] = static_cast<int64_t>(roles.node->id());
  root["role"] = NodeKindName(kind);
  root["role_index"] = index;

  // The role's one entry, in the array sdrsim --json would hold it in.
  JsonValue entry;
  const char* section = nullptr;
  switch (kind) {
    case NodeKind::kDirectory: {
      JsonValue& d = root["directory"];
      d["lookups_served"] = roles.directory->lookups_served();
      break;
    }
    case NodeKind::kMaster: {
      const Master& master = *roles.master;
      section = "masters";
      entry = NodeMetricsJson(index, master.id(), master.metrics());
      entry["version"] = master.version();
      // Which slaves this master has excluded, by node id — sdrcluster
      // asserts the injected liar shows up here.
      JsonValue excluded = JsonValue::Array();
      for (NodeId slave : plan.slave_ids) {
        if (master.IsExcluded(slave)) {
          excluded.Append(static_cast<int64_t>(slave));
        }
      }
      entry["excluded_nodes"] = std::move(excluded);
      break;
    }
    case NodeKind::kAuditor: {
      const Auditor& auditor = *roles.auditor;
      section = "auditors";
      entry = NodeMetricsJson(index, auditor.id(), auditor.metrics());
      entry["version_lag"] = auditor.version_lag();
      entry["backlog"] = auditor.backlog();
      break;
    }
    case NodeKind::kSlave: {
      const Slave& slave = *roles.slave;
      section = "slaves";
      entry = NodeMetricsJson(index, slave.id(), slave.metrics());
      entry["applied_version"] = slave.applied_version();
      // No "excluded" flag here: exclusion is master-side state a slave
      // process cannot observe; read it from the masters' reports.
      break;
    }
    case NodeKind::kClient: {
      const Client& client = *roles.client;
      section = "clients";
      entry = NodeMetricsJson(index, client.id(), client.metrics());
      break;
    }
  }
  if (section != nullptr) {
    JsonValue entries = JsonValue::Array();
    entries.Append(std::move(entry));
    root[section] = std::move(entries);
  }

  JsonValue& net = root["network"];
  net["messages_sent"] = env.messages_sent();
  net["messages_delivered"] = env.messages_delivered();
  net["bytes_sent"] = env.bytes_sent();
  net["messages_dropped"] = env.messages_dropped();
  net["reconnects"] = env.reconnects();
  net["loop_wakeups"] = env.loop_wakeups();
  net["send_calls"] = env.send_calls();
  net["recv_calls"] = env.recv_calls();
  net["epoll_ctl_calls"] = env.epoll_ctl_calls();

  if (sink != nullptr) {
    root["histograms"] = HistogramSummaryJson(sink->MergedHistograms());
    JsonValue& tr = root["trace"];
    tr["events"] = sink->total_emitted();
    tr["dropped"] = sink->dropped();
  }
  return root;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags
      .Define("config", "",
              "node config file (required; see docs/RUNTIME.md)")
      .Define("out", "",
              "write the final JSON report to this file (default: stdout)")
      .Define("stats_interval", "0",
              "seconds between compact one-line JSON stats dumps to stdout "
              "(0 = only the final report)")
      .Define("trace", "true",
              "enable the tracing subsystem (latency histograms in reports)")
      .Define("trace_capacity", "262144", "trace ring-buffer capacity");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  const std::string config_path = flags.GetString("config");
  if (config_path.empty()) {
    std::fprintf(stderr, "sdrnode: --config is required\n");
    return 1;
  }
  Result<std::string> config_text = ReadFile(config_path);
  if (!config_text.ok()) {
    std::fprintf(stderr, "sdrnode: %s\n",
                 config_text.error().message().c_str());
    return 1;
  }
  auto parsed = ParseNodeConfig(*config_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "sdrnode: %s: %s\n", config_path.c_str(),
                 parsed.error().message().c_str());
    return 1;
  }
  NodeConfig config = std::move(parsed).value();

  if (config.liar_index >= 0) {
    const int liar = config.liar_index;
    const double p = config.lie_probability;
    config.deployment.slave_behavior = [liar, p](int index) {
      Slave::Behavior b;
      if (index == liar) {
        b.lie_probability = p;
      }
      return b;
    };
  }
  DeploymentPlan plan = BuildDeployment(config.deployment);
  if (config.node_id >= static_cast<NodeId>(plan.num_nodes() + 1)) {
    std::fprintf(stderr, "sdrnode: node_id %u outside the %d-node roster\n",
                 config.node_id, plan.num_nodes());
    return 1;
  }
  const NodeKind kind = plan.KindOf(config.node_id);
  const int index = plan.RoleIndexOf(config.node_id);

  RealEnv::Options eopts;
  eopts.listen_host = config.listen_host;
  eopts.listen_port = config.listen_port;
  // Private per-process stream; any collision-free derivation works, since
  // unlike the simulator no cross-node stream sharing is possible.
  eopts.rng_seed = config.deployment.seed * 1000003 + config.node_id;
  eopts.epoch_realtime_us = config.epoch_us;
  eopts.start_delay = config.start_delay_ms * kMillisecond;
  RealEnv env(eopts);

  PlanNode roles = BuildPlanNode(
      plan, config.node_id, [&](Node* node) { env.Attach(node, config.node_id); });
  for (const auto& peer : config.peers) {
    env.AddPeer(peer.id, peer.host, peer.port);
  }

  std::unique_ptr<TraceSink> sink;
  if (flags.GetBool("trace")) {
    TraceSink::Options topts;
    topts.capacity = static_cast<size_t>(flags.GetInt("trace_capacity"));
    sink = std::make_unique<TraceSink>(&env, topts);
    sink->RegisterNode(config.node_id, TraceRoleOf(kind),
                       std::string(NodeKindName(kind)) + "[" +
                           std::to_string(index) + "]");
    env.set_trace(sink.get());
  }

  g_env = &env;
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  std::fprintf(stderr, "sdrnode: node %u (%s[%d]) listening on %s:%u\n",
               config.node_id, NodeKindName(kind), index,
               config.listen_host.c_str(), env.listen_port());

  const int64_t stats_s = flags.GetInt("stats_interval");
  std::function<void()> stats_tick;  // re-arms itself
  if (stats_s > 0) {
    stats_tick = [&] {
      JsonValue snapshot =
          NodeReport(env, plan, kind, index, roles, sink.get());
      std::printf("%s\n", snapshot.Dump().c_str());
      std::fflush(stdout);
      env.ScheduleAfter(stats_s * kSecond, [&] { stats_tick(); });
    };
    env.ScheduleAfter(stats_s * kSecond, [&] { stats_tick(); });
  }

  env.Run();  // until SIGINT/SIGTERM -> RequestStop

  JsonValue report = NodeReport(env, plan, kind, index, roles, sink.get());
  const std::string dump = report.Dump(2) + "\n";
  const std::string out_path = flags.GetString("out");
  if (out_path.empty()) {
    std::printf("%s", dump.c_str());
  } else if (Status written = WriteFile(out_path, dump); !written.ok()) {
    std::fprintf(stderr, "sdrnode: %s\n", written.error().message().c_str());
    return 1;
  }
  return 0;
}
