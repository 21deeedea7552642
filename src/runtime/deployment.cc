#include "src/runtime/deployment.h"

#include <cstdlib>
#include <sstream>

#include "src/util/logging.h"

namespace sdr {

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDirectory:
      return "directory";
    case NodeKind::kMaster:
      return "master";
    case NodeKind::kAuditor:
      return "auditor";
    case NodeKind::kSlave:
      return "slave";
    case NodeKind::kClient:
      return "client";
  }
  return "unknown";
}

TraceRole TraceRoleOf(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDirectory:
      return TraceRole::kDirectory;
    case NodeKind::kMaster:
      return TraceRole::kMaster;
    case NodeKind::kAuditor:
      return TraceRole::kAuditor;
    case NodeKind::kSlave:
      return TraceRole::kSlave;
    case NodeKind::kClient:
      return TraceRole::kClient;
  }
  return TraceRole::kNone;
}

NodeKind DeploymentPlan::KindOf(NodeId id) const {
  if (id == directory_id) {
    return NodeKind::kDirectory;
  }
  NodeId n = id - 2;  // ids after the directory, zero-based
  if (n < master_ids.size()) {
    return NodeKind::kMaster;
  }
  n -= static_cast<NodeId>(master_ids.size());
  if (n < auditor_ids.size()) {
    return NodeKind::kAuditor;
  }
  n -= static_cast<NodeId>(auditor_ids.size());
  if (n < slave_ids.size()) {
    return NodeKind::kSlave;
  }
  return NodeKind::kClient;
}

int DeploymentPlan::RoleIndexOf(NodeId id) const {
  switch (KindOf(id)) {
    case NodeKind::kDirectory:
      return 0;
    case NodeKind::kMaster:
      return static_cast<int>(id - master_ids.front());
    case NodeKind::kAuditor:
      return static_cast<int>(id - auditor_ids.front());
    case NodeKind::kSlave:
      return static_cast<int>(id - slave_ids.front());
    case NodeKind::kClient:
      return static_cast<int>(id - client_ids.front());
  }
  return 0;
}

DeploymentPlan BuildDeployment(const DeploymentConfig& config) {
  Rng root(config.seed);
  return BuildDeployment(config, root);
}

DeploymentPlan BuildDeployment(const DeploymentConfig& config, Rng& root) {
  DeploymentPlan plan;
  plan.config = config;
  const int S = plan.num_shards();
  const int M = config.num_masters;
  const int A = std::max(1, config.num_auditors);
  const SignatureScheme scheme = config.params.scheme;

  NodeId next = 2;  // the directory is id 1
  auto take_ids = [&next](std::vector<NodeId>& ids, int n) {
    for (int i = 0; i < n; ++i) {
      ids.push_back(next++);
    }
  };
  take_ids(plan.master_ids, S * M);
  take_ids(plan.auditor_ids, S * A);
  take_ids(plan.slave_ids, S * M * config.slaves_per_master);
  take_ids(plan.client_ids, config.num_clients);

  // Draw order: content key, every master key, every auditor key (all
  // shard-major), the corpus fork, then every slave key. One content key
  // certifies every shard's masters, so verification stays rooted in the
  // single content identity.
  Rng key_rng = root.Fork();
  KeyPair content_key = KeyPair::Generate(scheme, key_rng);
  Signer owner(content_key);
  plan.content.scheme = scheme;
  plan.content.content_public_key = content_key.public_key;

  plan.shard_master_keys.resize(S);
  plan.shard_master_certs.resize(S);
  for (int m = 0; m < S * M; ++m) {
    const NodeId id = plan.master_ids[m];
    plan.master_keys.push_back(KeyPair::Generate(scheme, key_rng));
    const Bytes& key = plan.master_keys.back().public_key;
    plan.master_key_map[id] = key;
    plan.shard_master_keys[m / M][id] = key;
    plan.master_certs.push_back(
        IssueCertificate(owner, id, Role::kMaster, key));
    plan.shard_master_certs[m / M].push_back(plan.master_certs.back());
  }
  for (int a = 0; a < S * A; ++a) {
    plan.auditor_keys.push_back(KeyPair::Generate(scheme, key_rng));
  }

  Rng corpus_rng = root.Fork();
  plan.base = BuildCatalogCorpus(config.corpus, corpus_rng);
  if (S > 1) {
    std::vector<std::string> corpus_keys;
    corpus_keys.reserve(plan.base.data().size());
    for (const auto& [key, value] : plan.base.data()) {
      corpus_keys.push_back(key);
    }
    plan.shard_map =
        BuildShardMap(std::move(corpus_keys), static_cast<uint32_t>(S));
    if (plan.shard_map.num_shards() != static_cast<uint32_t>(S)) {
      SDR_LOG(kError) << "corpus too small to split into " << S << " shards";
      std::abort();
    }
    plan.shard_base.resize(S);
    for (const auto& [key, value] : plan.base.data()) {
      plan.shard_base[plan.shard_map.ShardForKey(key)].Apply(
          WriteOp::Put(key, value));
    }
    std::vector<std::vector<NodeId>> shard_masters(S);
    for (int m = 0; m < S * M; ++m) {
      shard_masters[m / M].push_back(plan.master_ids[m]);
    }
    plan.placement = MakeShardPlacement(owner, 1, plan.shard_map,
                                        std::move(shard_masters));
  }

  for (int m = 0; m < S * M; ++m) {
    Signer master_signer(plan.master_keys[m]);
    for (int k = 0; k < config.slaves_per_master; ++k) {
      const NodeId id = plan.slave_ids[plan.slave_keys.size()];
      plan.slave_keys.push_back(KeyPair::Generate(scheme, key_rng));
      plan.slave_certs.push_back(
          IssueCertificate(master_signer, id, Role::kSlave,
                           plan.slave_keys.back().public_key));
    }
  }
  return plan;
}

namespace {

// Shard `shard`'s total-order group: its masters, then its auditors.
std::vector<NodeId> ShardGroup(const DeploymentPlan& plan, int shard) {
  const int M = plan.masters_per_shard();
  const int A = plan.auditors_per_shard();
  std::vector<NodeId> group(plan.master_ids.begin() + shard * M,
                            plan.master_ids.begin() + (shard + 1) * M);
  group.insert(group.end(), plan.auditor_ids.begin() + shard * A,
               plan.auditor_ids.begin() + (shard + 1) * A);
  return group;
}

}  // namespace

Master::Options MasterOptionsFor(const DeploymentPlan& plan, int index) {
  const int shard = index / plan.masters_per_shard();
  const int A = plan.auditors_per_shard();
  Master::Options opts;
  opts.params = plan.config.params;
  opts.cost = plan.config.cost;
  opts.key_pair = plan.master_keys[index];
  opts.content = plan.content;
  opts.group = ShardGroup(plan, shard);
  opts.auditors.assign(plan.auditor_ids.begin() + shard * A,
                       plan.auditor_ids.begin() + (shard + 1) * A);
  opts.master_keys = plan.shard_master_keys[shard];
  opts.snapshot_interval = plan.config.snapshot_interval;
  opts.broadcast = plan.config.broadcast;
  return opts;
}

Auditor::Options AuditorOptionsFor(const DeploymentPlan& plan, int index) {
  const int shard = index / plan.auditors_per_shard();
  Auditor::Options opts;
  opts.params = plan.config.params;
  opts.cost = plan.config.cost;
  opts.key_pair = plan.auditor_keys[index];
  opts.group = ShardGroup(plan, shard);
  opts.master_keys = plan.shard_master_keys[shard];
  opts.master_certs = plan.shard_master_certs[shard];
  opts.snapshot_interval = plan.config.snapshot_interval;
  opts.broadcast = plan.config.broadcast;
  opts.use_result_cache = plan.config.auditor_use_cache;
  opts.audit_jobs = plan.config.audit_jobs;
  return opts;
}

Slave::Options SlaveOptionsFor(const DeploymentPlan& plan, int slave_index) {
  Slave::Options opts;
  opts.params = plan.config.params;
  opts.cost = plan.config.cost;
  opts.key_pair = plan.slave_keys[slave_index];
  opts.master_keys = plan.master_key_map;
  opts.rng_seed = plan.config.seed * 1000003 + slave_index;
  if (plan.config.slave_behavior) {
    opts.behavior = plan.config.slave_behavior(slave_index);
  }
  return opts;
}

Client::Options ClientOptionsFor(const DeploymentPlan& plan, int client_index,
                                 Client::LoadMode mode) {
  Client::Options opts;
  opts.params = plan.config.params;
  opts.content = plan.content;
  opts.directory = plan.directory_id;
  opts.num_shards = static_cast<uint32_t>(plan.num_shards());
  opts.mode = mode;
  opts.think_time = plan.config.client_think_time;
  opts.write_fraction = plan.config.client_write_fraction;
  opts.rng_seed = plan.config.seed * 7919 + client_index;
  QueryMix mix = plan.config.mix;
  mix.n_items = plan.config.corpus.n_items;
  opts.query_source = [mix](Rng& rng) { return mix.Generate(rng); };
  WriteGen write_gen = plan.config.write_gen;
  write_gen.n_items = plan.config.corpus.n_items;
  opts.write_source = [write_gen](Rng& rng) { return write_gen.Generate(rng); };
  opts.peer_clients = plan.client_ids;
  return opts;
}

PlanNode BuildPlanNode(const DeploymentPlan& plan, NodeId id,
                       const std::function<void(Node*)>& attach) {
  PlanNode built;
  const int index = plan.RoleIndexOf(id);
  switch (plan.KindOf(id)) {
    case NodeKind::kDirectory:
      built.directory = std::make_unique<Directory>();
      built.node = built.directory.get();
      attach(built.node);
      built.directory->Publish(plan.content.content_public_key,
                               plan.master_certs);
      if (plan.placement.has_value()) {
        built.directory->PublishPlacement(plan.content.content_public_key,
                                          *plan.placement);
      }
      break;
    case NodeKind::kMaster: {
      built.master = std::make_unique<Master>(MasterOptionsFor(plan, index));
      built.node = built.master.get();
      attach(built.node);
      // AddSlave records this master as the owner, so it needs the id.
      const int P = plan.config.slaves_per_master;
      for (int s = index * P; s < (index + 1) * P; ++s) {
        built.master->AddSlave(plan.slave_certs[s]);
      }
      built.master->SetBaseContent(
          plan.BaseFor(index / plan.masters_per_shard()));
      break;
    }
    case NodeKind::kAuditor:
      built.auditor = std::make_unique<Auditor>(AuditorOptionsFor(plan, index));
      built.node = built.auditor.get();
      attach(built.node);
      built.auditor->SetBaseContent(
          plan.BaseFor(index / plan.auditors_per_shard()));
      break;
    case NodeKind::kSlave:
      built.slave = std::make_unique<Slave>(SlaveOptionsFor(plan, index));
      built.node = built.slave.get();
      attach(built.node);
      built.slave->SetBaseContent(
          plan.BaseFor(index / plan.slaves_per_shard()));
      break;
    case NodeKind::kClient:
      built.client = std::make_unique<Client>(
          ClientOptionsFor(plan, index, Client::LoadMode::kClosedLoop));
      built.node = built.client.get();
      attach(built.node);
      break;
  }
  return built;
}

namespace {

bool SplitHostPort(const std::string& s, std::string* host, uint16_t* port) {
  size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon + 1 >= s.size()) {
    return false;
  }
  *host = s.substr(0, colon);
  long p = std::strtol(s.c_str() + colon + 1, nullptr, 10);
  if (p < 0 || p > 65535) {
    return false;
  }
  *port = static_cast<uint16_t>(p);
  return !host->empty();
}

}  // namespace

Result<NodeConfig> ParseNodeConfig(const std::string& text) {
  NodeConfig config;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) {
      continue;  // blank / comment-only line
    }
    auto fail = [&](const std::string& why) {
      return Error(ErrorCode::kParseError,
                   "config line " + std::to_string(lineno) + ": " + why);
    };
    if (key == "node_id") {
      uint32_t v;
      if (!(ls >> v)) return fail("node_id needs an integer");
      config.node_id = v;
    } else if (key == "seed") {
      if (!(ls >> config.deployment.seed)) return fail("seed needs an integer");
    } else if (key == "masters") {
      if (!(ls >> config.deployment.num_masters)) return fail("bad masters");
    } else if (key == "auditors") {
      if (!(ls >> config.deployment.num_auditors)) return fail("bad auditors");
    } else if (key == "slaves_per_master") {
      if (!(ls >> config.deployment.slaves_per_master)) {
        return fail("bad slaves_per_master");
      }
    } else if (key == "clients") {
      if (!(ls >> config.deployment.num_clients)) return fail("bad clients");
    } else if (key == "items") {
      if (!(ls >> config.deployment.corpus.n_items)) return fail("bad items");
    } else if (key == "max_latency_ms") {
      int64_t ms;
      if (!(ls >> ms)) return fail("bad max_latency_ms");
      config.deployment.params.max_latency = ms * kMillisecond;
    } else if (key == "keepalive_ms") {
      int64_t ms;
      if (!(ls >> ms)) return fail("bad keepalive_ms");
      config.deployment.params.keepalive_period = ms * kMillisecond;
    } else if (key == "audit_slack_ms") {
      int64_t ms;
      if (!(ls >> ms)) return fail("bad audit_slack_ms");
      config.deployment.params.audit_slack = ms * kMillisecond;
    } else if (key == "commit_batch") {
      if (!(ls >> config.deployment.params.commit_batch)) {
        return fail("bad commit_batch");
      }
    } else if (key == "commit_window_us") {
      int64_t us;
      if (!(ls >> us)) return fail("bad commit_window_us");
      config.deployment.params.commit_window = us * kMicrosecond;
    } else if (key == "double_check_p") {
      if (!(ls >> config.deployment.params.double_check_probability)) {
        return fail("bad double_check_p");
      }
    } else if (key == "think_ms") {
      int64_t ms;
      if (!(ls >> ms)) return fail("bad think_ms");
      config.deployment.client_think_time = ms * kMillisecond;
    } else if (key == "write_fraction") {
      if (!(ls >> config.deployment.client_write_fraction)) {
        return fail("bad write_fraction");
      }
    } else if (key == "audit_jobs") {
      if (!(ls >> config.deployment.audit_jobs)) return fail("bad audit_jobs");
    } else if (key == "liar_index") {
      if (!(ls >> config.liar_index)) return fail("bad liar_index");
    } else if (key == "lie_probability") {
      if (!(ls >> config.lie_probability)) return fail("bad lie_probability");
    } else if (key == "epoch_us") {
      if (!(ls >> config.epoch_us)) return fail("bad epoch_us");
    } else if (key == "start_delay_ms") {
      if (!(ls >> config.start_delay_ms)) return fail("bad start_delay_ms");
    } else if (key == "listen") {
      std::string addr;
      if (!(ls >> addr) ||
          !SplitHostPort(addr, &config.listen_host, &config.listen_port)) {
        return fail("listen needs HOST:PORT");
      }
    } else if (key == "peer") {
      NodeConfig::PeerAddr peer;
      std::string addr;
      if (!(ls >> peer.id >> addr) ||
          !SplitHostPort(addr, &peer.host, &peer.port)) {
        return fail("peer needs ID HOST:PORT");
      }
      config.peers.push_back(std::move(peer));
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  if (config.node_id == kInvalidNode) {
    return Error(ErrorCode::kParseError, "config missing node_id");
  }
  return config;
}

std::string FormatNodeConfig(const NodeConfig& config) {
  std::ostringstream out;
  out << "node_id " << config.node_id << "\n";
  out << "seed " << config.deployment.seed << "\n";
  out << "masters " << config.deployment.num_masters << "\n";
  out << "auditors " << config.deployment.num_auditors << "\n";
  out << "slaves_per_master " << config.deployment.slaves_per_master << "\n";
  out << "clients " << config.deployment.num_clients << "\n";
  out << "items " << config.deployment.corpus.n_items << "\n";
  out << "max_latency_ms "
      << config.deployment.params.max_latency / kMillisecond << "\n";
  out << "keepalive_ms "
      << config.deployment.params.keepalive_period / kMillisecond << "\n";
  out << "audit_slack_ms "
      << config.deployment.params.audit_slack / kMillisecond << "\n";
  out << "commit_batch " << config.deployment.params.commit_batch << "\n";
  out << "commit_window_us "
      << config.deployment.params.commit_window / kMicrosecond << "\n";
  out << "double_check_p " << config.deployment.params.double_check_probability
      << "\n";
  out << "think_ms " << config.deployment.client_think_time / kMillisecond
      << "\n";
  out << "write_fraction " << config.deployment.client_write_fraction << "\n";
  out << "audit_jobs " << config.deployment.audit_jobs << "\n";
  out << "liar_index " << config.liar_index << "\n";
  out << "lie_probability " << config.lie_probability << "\n";
  out << "epoch_us " << config.epoch_us << "\n";
  out << "start_delay_ms " << config.start_delay_ms << "\n";
  out << "listen " << config.listen_host << ":" << config.listen_port << "\n";
  for (const auto& peer : config.peers) {
    out << "peer " << peer.id << " " << peer.host << ":" << peer.port << "\n";
  }
  return out.str();
}

}  // namespace sdr
