// sdrcluster — stand up a full secure-data-replication deployment as real
// OS processes on localhost, run it for a while, tear it down cleanly, and
// assert the protocol outcomes from the per-node JSON reports.
//
// What it does, in order:
//   1. derives the roster from (seed, counts) exactly like every sdrnode
//      process will (BuildDeployment),
//   2. probes a free loopback port per node and writes one sdrnode config
//      file per process into --workdir (full-mesh peer lists),
//   3. fork/execs one sdrnode per roster entry — directory, masters,
//      auditors, slaves first; clients carry a start delay so the serving
//      fleet finishes dialing before the first lookup goes out,
//   4. lets the cluster run for --seconds wall seconds (watching for early
//      child deaths),
//   5. SIGTERMs everyone (each sdrnode writes its final report on the way
//      out), reaps with a timeout, SIGKILLs stragglers,
//   6. reads the reports back and asserts: reads were accepted; with an
//      injected liar (--liar_index), the lie was caught — the liar's node
//      id appears in a master's excluded_nodes, or an auditor/double-check
//      mismatch fired; every child exited cleanly.
//
// Exit status 0 iff all assertions hold — CI runs this as the real-transport
// smoke. Example:
//   ./build/tools/sdrcluster --nodes 3 --clients 2 --seconds 8
//       --liar_index 0 --lie_probability 0.5 --workdir /tmp/sdr.smoke
#include <arpa/inet.h>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "src/runtime/deployment.h"
#include "src/util/file.h"
#include "src/util/flags.h"
#include "src/util/json.h"

using namespace sdr;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void OnSignal(int) { g_interrupted = 1; }

int64_t NowRealtimeUs() {
  timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

void SleepMs(int64_t ms) {
  timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = (ms % 1000) * 1000000;
  nanosleep(&ts, nullptr);
}

// Binds an ephemeral loopback port, reads it back, and releases it. The
// classic probe race (someone else grabbing the port before the child
// binds) is acceptable on a CI loopback; sdrnode fails loudly if it loses.
uint16_t ProbeFreePort() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return 0;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  uint16_t port = 0;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    socklen_t len = sizeof addr;
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port = ntohs(addr.sin_port);
    }
  }
  close(fd);
  return port;
}

// util/json is a writer, not a parser; the reports are byte-stable
// `"key": value` dumps, so a text scan for the first occurrence is exact.
bool FindJsonInt(const std::string& text, const std::string& key,
                 int64_t* out) {
  std::string needle = "\"" + key + "\": ";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  *out = std::strtoll(text.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

int64_t JsonIntOr(const std::string& text, const std::string& key,
                  int64_t fallback) {
  int64_t v = fallback;
  FindJsonInt(text, key, &v);
  return v;
}

// Scans the integers of `"key": [a, b, ...]` for `want`.
bool JsonArrayContains(const std::string& text, const std::string& key,
                       int64_t want) {
  std::string needle = "\"" + key + "\": [";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  const char* p = text.c_str() + pos + needle.size();
  while (*p != '\0' && *p != ']') {
    char* end = nullptr;
    long long v = std::strtoll(p, &end, 10);
    if (end == p) {
      ++p;
      continue;
    }
    if (v == want) {
      return true;
    }
    p = end;
  }
  return false;
}

struct Child {
  NodeId node_id = kInvalidNode;
  std::string role;
  pid_t pid = -1;
  std::string config_path;
  std::string report_path;
  bool exited = false;
  int status = 0;
};

std::string DirOfProgram(const char* argv0) {
  std::string path(argv0);
  size_t slash = path.rfind('/');
  if (slash == std::string::npos) {
    return ".";
  }
  return path.substr(0, slash);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Define("nodes", "3", "number of slave nodes (total, across masters)")
      .Define("masters", "1", "number of masters")
      .Define("auditors", "1", "number of auditors")
      .Define("clients", "2", "number of clients")
      .Define("seconds", "8", "wall-clock seconds to run the workload")
      .Define("seed", "1", "deployment seed (roster, keys, corpus)")
      .Define("items", "50", "catalogue size")
      .Define("liar_index", "-1", "slave index that lies (-1 = honest run)")
      .Define("lie_probability", "0.5", "lie rate for the lying slave")
      .Define("think_ms", "50", "client think time between operations")
      .Define("write_fraction", "0.05", "fraction of client ops that write")
      .Define("max_latency_ms", "2000", "freshness bound / write spacing")
      .Define("keepalive_ms", "500", "keep-alive period")
      .Define("double_check_p", "0.05", "double-check probability")
      .Define("start_delay_ms", "500", "client start delay after launch")
      .Define("stats_interval", "0", "per-node periodic stats dump seconds")
      .Define("workdir", "",
              "directory for configs + reports (default /tmp/sdrcluster.PID)")
      .Define("sdrnode", "",
              "path to the sdrnode binary (default: next to sdrcluster)")
      .Define("json", "false", "emit the aggregate summary as JSON");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  DeploymentConfig dc;
  dc.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  dc.num_masters = static_cast<int>(flags.GetInt("masters"));
  dc.num_auditors = static_cast<int>(flags.GetInt("auditors"));
  int total_slaves = static_cast<int>(flags.GetInt("nodes"));
  if (dc.num_masters < 1 || total_slaves < dc.num_masters) {
    std::fprintf(stderr, "sdrcluster: need --nodes >= --masters >= 1\n");
    return 1;
  }
  dc.slaves_per_master = total_slaves / dc.num_masters;
  dc.num_clients = static_cast<int>(flags.GetInt("clients"));
  dc.corpus.n_items = static_cast<size_t>(flags.GetInt("items"));
  dc.params.max_latency = flags.GetInt("max_latency_ms") * kMillisecond;
  dc.params.keepalive_period = flags.GetInt("keepalive_ms") * kMillisecond;
  dc.params.double_check_probability = flags.GetDouble("double_check_p");
  dc.client_think_time = flags.GetInt("think_ms") * kMillisecond;
  dc.client_write_fraction = flags.GetDouble("write_fraction");

  const int liar_index = static_cast<int>(flags.GetInt("liar_index"));
  const double lie_probability = flags.GetDouble("lie_probability");
  const int64_t seconds = flags.GetInt("seconds");
  const bool emit_json = flags.GetBool("json");

  DeploymentPlan plan = BuildDeployment(dc);
  if (liar_index >= static_cast<int>(plan.slave_ids.size())) {
    std::fprintf(stderr, "sdrcluster: --liar_index %d but only %zu slaves\n",
                 liar_index, plan.slave_ids.size());
    return 1;
  }

  std::string workdir = flags.GetString("workdir");
  if (workdir.empty()) {
    workdir = "/tmp/sdrcluster." + std::to_string(getpid());
  }
  if (mkdir(workdir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "sdrcluster: cannot create %s\n", workdir.c_str());
    return 1;
  }

  std::string sdrnode = flags.GetString("sdrnode");
  if (sdrnode.empty()) {
    sdrnode = DirOfProgram(argv[0]) + "/sdrnode";
  }
  if (access(sdrnode.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "sdrcluster: sdrnode binary not found at %s\n",
                 sdrnode.c_str());
    return 1;
  }

  // Roster in launch order: servers first, clients last.
  std::vector<NodeId> roster;
  roster.push_back(plan.directory_id);
  for (NodeId id : plan.master_ids) roster.push_back(id);
  for (NodeId id : plan.auditor_ids) roster.push_back(id);
  for (NodeId id : plan.slave_ids) roster.push_back(id);
  for (NodeId id : plan.client_ids) roster.push_back(id);

  std::map<NodeId, uint16_t> ports;
  for (NodeId id : roster) {
    uint16_t port = ProbeFreePort();
    if (port == 0) {
      std::fprintf(stderr, "sdrcluster: cannot probe a free port\n");
      return 1;
    }
    ports[id] = port;
  }

  const int64_t epoch_us = NowRealtimeUs();
  const int64_t client_delay_ms = flags.GetInt("start_delay_ms");

  std::vector<Child> children;
  for (NodeId id : roster) {
    NodeConfig nc;
    nc.node_id = id;
    nc.deployment = dc;
    nc.liar_index = liar_index;
    nc.lie_probability = lie_probability;
    nc.epoch_us = epoch_us;
    nc.start_delay_ms =
        plan.KindOf(id) == NodeKind::kClient ? client_delay_ms : 0;
    nc.listen_host = "127.0.0.1";
    nc.listen_port = ports[id];
    for (NodeId peer : roster) {
      if (peer != id) {
        nc.peers.push_back({peer, "127.0.0.1", ports[peer]});
      }
    }

    Child child;
    child.node_id = id;
    child.role = NodeKindName(plan.KindOf(id));
    child.config_path =
        workdir + "/node" + std::to_string(id) + ".conf";
    child.report_path =
        workdir + "/node" + std::to_string(id) + ".json";
    if (Status written = WriteFile(child.config_path, FormatNodeConfig(nc));
        !written.ok()) {
      std::fprintf(stderr, "sdrcluster: %s\n",
                   written.error().message().c_str());
      return 1;
    }
    children.push_back(std::move(child));
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  const std::string stats_arg =
      "--stats_interval=" + std::to_string(flags.GetInt("stats_interval"));
  for (Child& child : children) {
    pid_t pid = fork();
    if (pid < 0) {
      std::fprintf(stderr, "sdrcluster: fork failed\n");
      g_interrupted = 1;
      break;
    }
    if (pid == 0) {
      std::string config_arg = "--config=" + child.config_path;
      std::string out_arg = "--out=" + child.report_path;
      execl(sdrnode.c_str(), sdrnode.c_str(), config_arg.c_str(),
            out_arg.c_str(), stats_arg.c_str(), (char*)nullptr);
      std::fprintf(stderr, "sdrcluster: exec %s failed\n", sdrnode.c_str());
      _exit(127);
    }
    child.pid = pid;
  }

  std::printf("sdrcluster: %zu processes up (%d masters, %d auditors, "
              "%d slaves, %d clients), running %llds, workdir %s\n",
              children.size(), dc.num_masters, dc.num_auditors, total_slaves,
              dc.num_clients, static_cast<long long>(seconds),
              workdir.c_str());

  // Run phase: wall-clock wait, watching for early deaths.
  bool early_death = false;
  const int64_t deadline_ms = seconds * 1000;
  for (int64_t elapsed = 0;
       elapsed < deadline_ms && !g_interrupted && !early_death;
       elapsed += 100) {
    SleepMs(100);
    for (Child& child : children) {
      if (child.pid <= 0 || child.exited) {
        continue;
      }
      int status = 0;
      if (waitpid(child.pid, &status, WNOHANG) == child.pid) {
        child.exited = true;
        child.status = status;
        std::fprintf(stderr,
                     "sdrcluster: node %u (%s) died early (status %d)\n",
                     child.node_id, child.role.c_str(), status);
        early_death = true;
      }
    }
  }

  // Teardown: SIGTERM -> graceful report write -> reap; SIGKILL stragglers.
  for (Child& child : children) {
    if (child.pid > 0 && !child.exited) {
      kill(child.pid, SIGTERM);
    }
  }
  for (int64_t waited = 0; waited < 10000; waited += 50) {
    bool all_done = true;
    for (Child& child : children) {
      if (child.pid <= 0 || child.exited) {
        continue;
      }
      int status = 0;
      if (waitpid(child.pid, &status, WNOHANG) == child.pid) {
        child.exited = true;
        child.status = status;
      } else {
        all_done = false;
      }
    }
    if (all_done) {
      break;
    }
    SleepMs(50);
  }
  for (Child& child : children) {
    if (child.pid > 0 && !child.exited) {
      std::fprintf(stderr, "sdrcluster: node %u unresponsive, SIGKILL\n",
                   child.node_id);
      kill(child.pid, SIGKILL);
      waitpid(child.pid, &child.status, 0);
      child.exited = true;
      child.status = -1;  // counts as unclean
    }
  }

  // Verdicts from the per-node reports.
  bool all_clean = !early_death;
  int64_t reads_issued = 0, reads_accepted = 0, writes_committed = 0;
  int64_t double_check_mismatches = 0, mismatches_found = 0;
  int64_t slaves_excluded = 0, lies_told = 0;
  bool liar_excluded_by_id = false;
  const NodeId liar_node =
      liar_index >= 0 ? plan.slave_ids[liar_index] : kInvalidNode;
  JsonValue per_node = JsonValue::Array();
  for (Child& child : children) {
    bool clean = child.exited && WIFEXITED(child.status) &&
                 WEXITSTATUS(child.status) == 0;
    Result<std::string> read = ReadFile(child.report_path);
    const bool have_report = read.ok();
    const std::string report = have_report ? *read : std::string();
    if (!clean || !have_report) {
      std::fprintf(stderr, "sdrcluster: node %u (%s): %s\n", child.node_id,
                   child.role.c_str(),
                   !clean ? "unclean exit" : "missing report");
      all_clean = false;
    }
    if (have_report) {
      reads_issued += JsonIntOr(report, "reads_issued", 0);
      reads_accepted += JsonIntOr(report, "reads_accepted", 0);
      writes_committed +=
          child.role == "client" ? JsonIntOr(report, "writes_committed", 0)
                                 : 0;
      double_check_mismatches +=
          JsonIntOr(report, "double_check_mismatches", 0);
      mismatches_found += JsonIntOr(report, "mismatches_found", 0);
      slaves_excluded += JsonIntOr(report, "slaves_excluded", 0);
      lies_told += JsonIntOr(report, "lies_told", 0);
      if (liar_node != kInvalidNode &&
          JsonArrayContains(report, "excluded_nodes",
                            static_cast<int64_t>(liar_node))) {
        liar_excluded_by_id = true;
      }
    }
    JsonValue j = JsonValue::Object();
    j["node"] = static_cast<int64_t>(child.node_id);
    j["role"] = child.role;
    j["clean_exit"] = clean;
    j["report"] = child.report_path;
    per_node.Append(std::move(j));
  }

  const bool made_progress = reads_accepted > 0;
  // A lie is "caught" when the liar was excluded by id, or any detection
  // counter fired (audit mismatch / double-check mismatch / exclusion).
  const bool liar_caught =
      liar_index < 0 || liar_excluded_by_id || mismatches_found > 0 ||
      double_check_mismatches > 0 || slaves_excluded > 0;
  const bool pass = all_clean && made_progress && liar_caught;

  if (emit_json) {
    JsonValue root = JsonValue::Object();
    root["pass"] = pass;
    root["all_clean_exits"] = all_clean;
    root["reads_issued"] = reads_issued;
    root["reads_accepted"] = reads_accepted;
    root["writes_committed"] = writes_committed;
    root["lies_told"] = lies_told;
    root["double_check_mismatches"] = double_check_mismatches;
    root["auditor_mismatches"] = mismatches_found;
    root["slaves_excluded"] = slaves_excluded;
    root["liar_node"] = static_cast<int64_t>(liar_node);
    root["liar_excluded_by_id"] = liar_excluded_by_id;
    root["workdir"] = workdir;
    root["nodes"] = std::move(per_node);
    std::printf("%s\n", root.Dump(2).c_str());
  } else {
    std::printf("sdrcluster: reads issued=%lld accepted=%lld  "
                "writes=%lld  lies=%lld  detections: audit=%lld "
                "double-check=%lld excluded=%lld%s\n",
                static_cast<long long>(reads_issued),
                static_cast<long long>(reads_accepted),
                static_cast<long long>(writes_committed),
                static_cast<long long>(lies_told),
                static_cast<long long>(mismatches_found),
                static_cast<long long>(double_check_mismatches),
                static_cast<long long>(slaves_excluded),
                liar_node != kInvalidNode
                    ? (liar_excluded_by_id ? "  [liar excluded]"
                                           : "  [liar NOT excluded]")
                    : "");
    std::printf("sdrcluster: %s\n", pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}
