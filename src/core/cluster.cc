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

  plan_ = BuildDeployment(config_, sim_.rng());

  // AddNode assigns ids in call order, so adding nodes in roster order
  // gives each the id the plan (and every certificate) names.
  auto add = [this](Node* node, NodeId id, TraceRole role,
                    const std::string& name) {
    CheckId(net_.AddNode(node), id);
    // Names the node in trace exports; no-op when tracing is off.
    if (trace_sink_ != nullptr) {
      trace_sink_->RegisterNode(id, role, name);
    }
  };
  auto build = [&](NodeId id) {
    return BuildPlanNode(plan_, id, [&](Node* node) {
      const NodeKind kind = plan_.KindOf(id);
      add(node, id, TraceRoleOf(kind),
          std::string(NodeKindName(kind)) + " " +
              std::to_string(plan_.RoleIndexOf(id)));
    });
  };
  auto collect_evidence = [this](const EvidenceChain& chain) {
    fork_evidence_.push_back(chain);
  };

  directory_ = build(plan_.directory_id).directory;
  for (NodeId id : plan_.master_ids) {
    masters_.push_back(build(id).master);
  }
  for (NodeId id : plan_.auditor_ids) {
    auditors_.push_back(build(id).auditor);
    auditors_.back()->on_evidence = collect_evidence;
  }
  for (NodeId id : plan_.slave_ids) {
    slaves_.push_back(build(id).slave);
  }

  // Clients: the plan's options plus the simulated load shape.
  for (int c = 0; c < static_cast<int>(plan_.client_ids.size()); ++c) {
    Client::Options opts = ClientOptionsFor(plan_, c, config_.client_mode);
    opts.reads_per_second = config_.client_reads_per_second;
    opts.rate_multiplier = config_.client_rate_multiplier;
    if (config_.tweak_client) {
      config_.tweak_client(c, opts);
    }
    clients_.push_back(std::make_unique<Client>(std::move(opts)));
    add(clients_.back().get(), plan_.client_ids[c], TraceRole::kClient,
        "client " + std::to_string(c));
    clients_.back()->on_evidence = collect_evidence;
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
    opts.shard_map = plan_.shard_map;
    opts.master_keys = plan_.master_key_map;
    const int M = masters_per_shard();
    const int P = slaves_per_shard();
    for (int sh = 0; sh < num_shards(); ++sh) {
      ClientFleet::Options::ShardWiring wiring;
      wiring.slave_certs.assign(plan_.slave_certs.begin() + sh * P,
                                plan_.slave_certs.begin() + (sh + 1) * P);
      wiring.masters.assign(plan_.master_ids.begin() + sh * M,
                            plan_.master_ids.begin() + (sh + 1) * M);
      wiring.auditor = plan_.auditor_ids[sh * auditors_per_shard()];
      opts.shards.push_back(std::move(wiring));
    }
    fleet_ = std::make_unique<ClientFleet>(std::move(opts));
    add(fleet_.get(), static_cast<NodeId>(plan_.num_nodes() + 1),
        TraceRole::kClient, "fleet 0");
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
  return plan_.KindOf(master) == NodeKind::kMaster
             ? plan_.RoleIndexOf(master) / masters_per_shard()
             : 0;
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
  DocumentStore scratch;
  auto at_version = log->ReadAt(version, &scratch);
  if (!at_version.ok()) {
    ++accepted_uncheckable_;
    return;
  }
  auto outcome = truth_executor_.Execute(**at_version, query);
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
