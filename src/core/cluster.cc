#include "src/core/cluster.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "src/util/logging.h"

namespace sdr {

namespace {
// Node ids are precomputed so that Options can reference them before the
// nodes exist; abort loudly if the layout assumption ever breaks.
void CheckId(NodeId got, NodeId expected) {
  if (got != expected) {
    SDR_LOG(kError) << "cluster roster mismatch: got " << got << " expected "
                    << expected;
    std::abort();
  }
}
}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      net_(&sim_, config_.default_link) {
  if (config_.trace.enabled) {
    TraceSink::Options topts;
    topts.capacity = config_.trace.capacity;
    topts.sim_spans = config_.trace.sim_spans;
    trace_sink_ = std::make_unique<TraceSink>(&sim_, topts);
    // Installed before any node starts so the first scheduled event is
    // already observable.
    sim_.set_trace(trace_sink_.get());
  }

  Rng key_rng = sim_.rng().Fork();

  // --- Content owner: content key and identity. ---
  KeyPair content_key = KeyPair::Generate(config_.params.scheme, key_rng);
  Signer owner(content_key);
  content_.scheme = config_.params.scheme;
  content_.content_public_key = content_key.public_key;

  // Node ids are assigned sequentially by AddNode; lay the roster out
  // deterministically and shard-major: directory, every shard's masters,
  // every shard's auditors, every shard's slaves, clients, then (last) the
  // optional fleet node. At num_shards == 1 every loop below collapses to
  // the single-group roster — same ids, same key_rng draw order — so
  // classic runs are byte-identical.
  const int S = num_shards();
  const int M = config_.num_masters;
  const int A = std::max(1, config_.num_auditors);
  const NodeId directory_id = 1;
  std::vector<std::vector<NodeId>> shard_master_ids(S);
  std::vector<std::vector<NodeId>> shard_auditor_ids(S);
  for (int sh = 0; sh < S; ++sh) {
    for (int i = 0; i < M; ++i) {
      shard_master_ids[sh].push_back(static_cast<NodeId>(2 + sh * M + i));
    }
    for (int i = 0; i < A; ++i) {
      shard_auditor_ids[sh].push_back(
          static_cast<NodeId>(2 + S * M + sh * A + i));
    }
  }

  // Per-shard TOB group: the shard's masters plus its auditors (== the
  // whole group in classic runs).
  std::vector<std::vector<NodeId>> shard_group(S);
  for (int sh = 0; sh < S; ++sh) {
    shard_group[sh] = shard_master_ids[sh];
    for (NodeId a : shard_auditor_ids[sh]) {
      shard_group[sh].push_back(a);
    }
  }

  // --- Keys and certificates. One content key certifies every shard's
  // masters; verification stays rooted in the single content identity.
  std::vector<KeyPair> master_keys;  // shard-major, sh * M + i
  std::map<NodeId, Bytes> master_key_map;
  std::vector<std::map<NodeId, Bytes>> shard_key_map(S);
  std::vector<Certificate> master_certs;  // shard-major
  std::vector<std::vector<Certificate>> shard_certs(S);
  for (int sh = 0; sh < S; ++sh) {
    for (int i = 0; i < M; ++i) {
      NodeId mid = shard_master_ids[sh][i];
      master_keys.push_back(KeyPair::Generate(config_.params.scheme, key_rng));
      master_key_map[mid] = master_keys.back().public_key;
      shard_key_map[sh][mid] = master_keys.back().public_key;
      master_certs.push_back(IssueCertificate(owner, mid, Role::kMaster,
                                              master_keys.back().public_key));
      shard_certs[sh].push_back(master_certs.back());
      shard_of_master_[mid] = sh;
    }
  }
  std::vector<KeyPair> auditor_keys;  // shard-major, sh * A + i
  for (int sh = 0; sh < S; ++sh) {
    for (int i = 0; i < A; ++i) {
      auditor_keys.push_back(KeyPair::Generate(config_.params.scheme, key_rng));
    }
  }

  // --- Initial content. ---
  Rng corpus_rng = sim_.rng().Fork();
  DocumentStore base = BuildCatalogCorpus(config_.corpus, corpus_rng);

  // --- Shard map and per-shard content. Classic runs never touch the
  // corpus: shard_map_ stays trivial and `base` is installed unfiltered.
  std::vector<DocumentStore> shard_base;
  if (S > 1) {
    std::vector<std::string> corpus_keys;
    corpus_keys.reserve(base.data().size());
    for (const auto& [key, value] : base.data()) {
      corpus_keys.push_back(key);
    }
    shard_map_ = BuildShardMap(std::move(corpus_keys), static_cast<uint32_t>(S));
    if (shard_map_.num_shards() != static_cast<uint32_t>(S)) {
      SDR_LOG(kError) << "corpus too small to split into " << S << " shards";
      std::abort();
    }
    shard_base.resize(S);
    for (const auto& [key, value] : base.data()) {
      shard_base[shard_map_.ShardForKey(key)].Apply(WriteOp::Put(key, value));
    }
  }
  auto base_for_shard = [&](int sh) -> const DocumentStore& {
    return S > 1 ? shard_base[sh] : base;
  };

  // Names the node in trace exports; no-op when tracing is off.
  auto register_node = [this](NodeId id, TraceRole role, const char* kind,
                              int index) {
    if (trace_sink_ != nullptr) {
      trace_sink_->RegisterNode(id, role,
                                std::string(kind) + " " + std::to_string(index));
    }
  };

  // --- Directory. ---
  directory_ = std::make_unique<Directory>();
  NodeId got = net_.AddNode(directory_.get());
  CheckId(got, directory_id);
  register_node(got, TraceRole::kDirectory, "directory", 0);
  directory_->Publish(content_.content_public_key, master_certs);
  if (S > 1) {
    directory_->PublishPlacement(
        content_.content_public_key,
        MakeShardPlacement(owner, 1, shard_map_, shard_master_ids));
  }

  // --- Masters. ---
  for (int sh = 0; sh < S; ++sh) {
    for (int i = 0; i < M; ++i) {
      Master::Options opts;
      opts.params = config_.params;
      opts.cost = config_.cost;
      opts.key_pair = master_keys[sh * M + i];
      opts.content = content_;
      opts.group = shard_group[sh];
      opts.auditors = shard_auditor_ids[sh];
      opts.master_keys = shard_key_map[sh];
      opts.snapshot_interval = config_.snapshot_interval;
      opts.broadcast = config_.broadcast;
      masters_.push_back(std::make_unique<Master>(std::move(opts)));
      got = net_.AddNode(masters_.back().get());
      CheckId(got, shard_master_ids[sh][i]);
      register_node(got, TraceRole::kMaster, "master", sh * M + i);
      masters_.back()->SetBaseContent(base_for_shard(sh));
    }
  }

  // --- Auditors (the elected trusted servers without slave sets). ---
  for (int sh = 0; sh < S; ++sh) {
    for (int i = 0; i < A; ++i) {
      Auditor::Options opts;
      opts.params = config_.params;
      opts.cost = config_.cost;
      opts.key_pair = auditor_keys[sh * A + i];
      opts.group = shard_group[sh];
      opts.master_keys = shard_key_map[sh];
      opts.master_certs = shard_certs[sh];
      opts.snapshot_interval = config_.snapshot_interval;
      opts.broadcast = config_.broadcast;
      opts.use_result_cache = config_.auditor_use_cache;
      opts.audit_jobs = config_.audit_jobs;
      auditors_.push_back(std::make_unique<Auditor>(std::move(opts)));
      got = net_.AddNode(auditors_.back().get());
      CheckId(got, shard_auditor_ids[sh][i]);
      register_node(got, TraceRole::kAuditor, "auditor", sh * A + i);
      auditors_.back()->SetBaseContent(base_for_shard(sh));
      auditors_.back()->on_evidence = [this](const EvidenceChain& chain) {
        fork_evidence_.push_back(chain);
      };
    }
  }

  // --- Slaves (shard-major; saved certs wire the fleet below). ---
  std::vector<std::vector<Certificate>> shard_slave_certs(S);
  int slave_index = 0;
  for (int sh = 0; sh < S; ++sh) {
    for (int m = 0; m < M; ++m) {
      Signer master_signer(master_keys[sh * M + m]);
      for (int s = 0; s < config_.slaves_per_master; ++s, ++slave_index) {
        Slave::Options opts;
        opts.params = config_.params;
        opts.cost = config_.cost;
        opts.key_pair = KeyPair::Generate(config_.params.scheme, key_rng);
        opts.master_keys = master_key_map;
        opts.rng_seed = config_.seed * 1000003 + slave_index;
        if (config_.slave_behavior) {
          opts.behavior = config_.slave_behavior(slave_index);
        }
        slaves_.push_back(std::make_unique<Slave>(std::move(opts)));
        NodeId sid = net_.AddNode(slaves_.back().get());
        register_node(sid, TraceRole::kSlave, "slave", slave_index);
        slaves_.back()->SetBaseContent(base_for_shard(sh));
        Certificate cert = IssueCertificate(master_signer, sid, Role::kSlave,
                                            slaves_.back()->public_key());
        masters_[sh * M + m]->AddSlave(cert);
        shard_slave_certs[sh].push_back(std::move(cert));
      }
    }
  }

  // --- Clients. ---
  // Client ids follow the slaves in the roster; precompute them so every
  // client knows its gossip peers before any node exists.
  std::vector<NodeId> client_ids;
  {
    NodeId first_client = static_cast<NodeId>(
        2 + S * M + S * A + S * M * config_.slaves_per_master);
    for (int c = 0; c < config_.num_clients; ++c) {
      client_ids.push_back(first_client + static_cast<NodeId>(c));
    }
  }
  for (int c = 0; c < config_.num_clients; ++c) {
    Client::Options opts;
    opts.params = config_.params;
    opts.content = content_;
    opts.directory = directory_id;
    opts.num_shards = static_cast<uint32_t>(S);
    opts.mode = config_.client_mode;
    opts.think_time = config_.client_think_time;
    opts.reads_per_second = config_.client_reads_per_second;
    opts.rate_multiplier = config_.client_rate_multiplier;
    opts.write_fraction = config_.client_write_fraction;
    opts.rng_seed = config_.seed * 7919 + c;
    QueryMix mix = config_.mix;
    mix.n_items = config_.corpus.n_items;
    opts.query_source = [mix](Rng& rng) { return mix.Generate(rng); };
    WriteGen write_gen = config_.write_gen;
    write_gen.n_items = config_.corpus.n_items;
    opts.write_source = [write_gen](Rng& rng) {
      return write_gen.Generate(rng);
    };
    opts.peer_clients = client_ids;
    if (config_.tweak_client) {
      config_.tweak_client(c, opts);
    }
    clients_.push_back(std::make_unique<Client>(std::move(opts)));
    NodeId cid = net_.AddNode(clients_.back().get());
    CheckId(cid, client_ids[c]);
    register_node(cid, TraceRole::kClient, "client", c);
    clients_.back()->on_evidence = [this](const EvidenceChain& chain) {
      fork_evidence_.push_back(chain);
    };
    clients_.back()->on_accept = [this, c](const Query& query,
                                           const Pledge& pledge,
                                           const QueryResult& result) {
      OnClientAccept(c, query, pledge, result);
    };
  }

  // --- Fleet (optional, always the last roster entry so every id above is
  // unchanged whether or not it exists). ---
  if (config_.fleet_clients > 0) {
    ClientFleet::Options opts;
    opts.params = config_.params;
    opts.num_clients = static_cast<size_t>(config_.fleet_clients);
    opts.reads_per_second = config_.fleet_reads_per_second;
    opts.write_fraction = config_.fleet_write_fraction;
    opts.rng_seed = config_.seed * 104729 + 1;
    QueryMix mix = config_.mix;
    mix.n_items = config_.corpus.n_items;
    opts.query_source = [mix](Rng& rng) { return mix.Generate(rng); };
    WriteGen write_gen = config_.write_gen;
    write_gen.n_items = config_.corpus.n_items;
    opts.write_source = [write_gen](Rng& rng) {
      return write_gen.Generate(rng);
    };
    opts.shard_map = shard_map_;
    opts.master_keys = master_key_map;
    for (int sh = 0; sh < S; ++sh) {
      ClientFleet::Options::ShardWiring wiring;
      wiring.slave_certs = shard_slave_certs[sh];
      wiring.masters = shard_master_ids[sh];
      wiring.auditor = shard_auditor_ids[sh][0];
      opts.shards.push_back(std::move(wiring));
    }
    fleet_ = std::make_unique<ClientFleet>(std::move(opts));
    NodeId fid = net_.AddNode(fleet_.get());
    register_node(fid, TraceRole::kClient, "fleet", 0);
  }

  net_.StartAll();
}

void Cluster::RunFor(SimTime duration) {
  const SimTime end = sim_.Now() + duration;
  if (tick_hooks_.empty()) {
    sim_.RunUntil(end);
    return;
  }
  for (;;) {
    SimTime next = end;
    for (const TickHook& hook : tick_hooks_) {
      next = std::min(next, hook.next_due);
    }
    sim_.RunUntil(next);
    for (TickHook& hook : tick_hooks_) {
      if (hook.next_due <= sim_.Now()) {
        hook.next_due += hook.period;
        hook.fn();
      }
    }
    if (sim_.Now() >= end) {
      break;
    }
  }
}

void Cluster::AddTickHook(SimTime period, std::function<void()> hook) {
  if (period <= 0) {
    period = kMillisecond;
  }
  tick_hooks_.push_back(TickHook{period, sim_.Now() + period, std::move(hook)});
}

int Cluster::shard_of_master(NodeId master) const {
  auto it = shard_of_master_.find(master);
  return it == shard_of_master_.end() ? 0 : it->second;
}

bool Cluster::ExcludedByAnyMaster(NodeId slave) const {
  for (const auto& m : masters_) {
    if (m->IsExcluded(slave)) {
      return true;
    }
  }
  return false;
}

void Cluster::OnClientAccept(int client_index, const Query& query,
                             const Pledge& pledge, const QueryResult& result) {
  AcceptedRead record;
  record.client_index = client_index;
  record.slave = pledge.slave;
  record.version = pledge.token.content_version;
  record.token_timestamp = pledge.token.timestamp;
  record.accepted_at = sim_.Now();
  if (config_.track_ground_truth) {
    ValidateAcceptedRead(query, record.version, result,
                         shard_of_master(pledge.token.master), &record);
  }
  if (on_accepted_read) {
    on_accepted_read(record);
  }
}

void Cluster::ValidateAcceptedRead(const Query& query, uint64_t version,
                                   const QueryResult& result, int shard,
                                   AcceptedRead* record) {
  // Prefer a live master's full op log; fall back to the auditor's (which
  // prunes closed versions). Versions are per shard, so only the owning
  // shard's servers are consulted (= all of them in classic runs).
  const OpLog* log = nullptr;
  const int M = masters_per_shard();
  for (int i = shard * M; i < (shard + 1) * M; ++i) {
    const auto& m = masters_[i];
    if (m->up() && m->oplog().head_version() >= version) {
      log = &m->oplog();
      break;
    }
  }
  const auto& auditor = auditors_[shard * auditors_per_shard()];
  if (log == nullptr && auditor->oplog().head_version() >= version) {
    log = &auditor->oplog();
  }
  if (log == nullptr) {
    ++accepted_uncheckable_;
    return;
  }
  auto at_version = log->MaterializeAt(version);
  if (!at_version.ok()) {
    ++accepted_uncheckable_;
    return;
  }
  auto outcome = truth_executor_.Execute(*at_version, query);
  if (!outcome.ok()) {
    ++accepted_uncheckable_;
    return;
  }
  ++accepted_checked_;
  record->checked = true;
  if (!(outcome->result == result)) {
    ++accepted_wrong_;
    record->wrong = true;
  }
}

Cluster::Totals Cluster::ComputeTotals() const {
  Totals t;
  for (const auto& c : clients_) {
    Accumulate(t.clients, c->metrics());
  }
  for (const auto& m : masters_) {
    Accumulate(t.masters, m->metrics());
  }
  for (const auto& s : slaves_) {
    Accumulate(t.slaves, s->metrics());
  }
  for (const auto& a : auditors_) {
    Accumulate(t.auditors, a->metrics());
  }
  if (fleet_) {
    Accumulate(t.fleet, fleet_->metrics());
  }
  return t;
}

Cluster::Totals Cluster::ComputeShardTotals(int shard) const {
  Totals t;
  for (int i = 0; i < masters_per_shard(); ++i) {
    Accumulate(t.masters,
               masters_[shard * masters_per_shard() + i]->metrics());
  }
  for (int i = 0; i < slaves_per_shard(); ++i) {
    Accumulate(t.slaves, slaves_[shard * slaves_per_shard() + i]->metrics());
  }
  for (int i = 0; i < auditors_per_shard(); ++i) {
    Accumulate(t.auditors,
               auditors_[shard * auditors_per_shard() + i]->metrics());
  }
  return t;
}

}  // namespace sdr
