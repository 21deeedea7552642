#include "src/chaos/runner.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>

#include "src/trace/trace.h"
#include "src/util/logging.h"

namespace sdr {
namespace {

// Timeline label for each fault kind. Exhaustive on purpose
// (sdrlint:protocol-enum): a new chaos event must pick its trace name here.
const char* ChaosEventTraceName(ChaosEvent::Type type) {
  switch (type) {
    case ChaosEvent::Type::kCrash:
      return "chaos.crash";
    case ChaosEvent::Type::kRestart:
      return "chaos.restart";
    case ChaosEvent::Type::kPartition:
      return "chaos.partition";
    case ChaosEvent::Type::kHeal:
      return "chaos.heal";
    case ChaosEvent::Type::kHealAll:
      return "chaos.heal_all";
    case ChaosEvent::Type::kSetLink:
      return "chaos.set_link";
    case ChaosEvent::Type::kSetBehavior:
      return "chaos.set_behavior";
    case ChaosEvent::Type::kBurstWrites:
      return "chaos.burst_writes";
    case ChaosEvent::Type::kPauseAuditor:
      return "chaos.pause_auditor";
    case ChaosEvent::Type::kResumeAuditor:
      return "chaos.resume_auditor";
  }
  return "chaos.unknown";
}

}  // namespace

ChaosController::ChaosController(
    Cluster* cluster, Scenario scenario,
    std::vector<std::unique_ptr<InvariantChecker>> checkers,
    ChaosControllerOptions options)
    : cluster_(cluster),
      scenario_(std::move(scenario)),
      checkers_(std::move(checkers)),
      options_(options),
      // Deterministic per cluster seed, independent of the simulator's own
      // stream so chaos does not perturb protocol-level randomness.
      rng_(cluster->config().seed * 0x9E3779B97F4A7C15ULL + 0xC0FFEE) {}

std::vector<NodeId> ChaosController::Resolve(const NodeSelector& sel) {
  using Role = NodeSelector::Role;
  using Pick = NodeSelector::Pick;

  auto role_count = [this](Role role) -> int {
    switch (role) {
      case Role::kSlave:
        return cluster_->num_slaves();
      case Role::kMaster:
        return cluster_->num_masters();
      case Role::kAuditor:
        return cluster_->num_auditors();
      case Role::kClient:
        return cluster_->num_clients();
      case Role::kAll:
        return static_cast<int>(cluster_->net().node_count());
    }
    return 0;
  };
  auto role_id = [this](Role role, int i) -> NodeId {
    switch (role) {
      case Role::kSlave:
        return cluster_->slave(i).id();
      case Role::kMaster:
        return cluster_->master(i).id();
      case Role::kAuditor:
        return cluster_->auditor(i).id();
      case Role::kClient:
        return cluster_->client(i).id();
      case Role::kAll:
        return static_cast<NodeId>(i + 1);  // ids are dense from 1
    }
    return kInvalidNode;
  };

  std::vector<NodeId> ids;
  int count = role_count(sel.role);
  switch (sel.pick) {
    case Pick::kIndex:
      if (sel.arg < count) {
        ids.push_back(role_id(sel.role, sel.arg));
      }
      break;
    case Pick::kAll:
      for (int i = 0; i < count; ++i) {
        ids.push_back(role_id(sel.role, i));
      }
      break;
    case Pick::kOdd:
    case Pick::kEven:
      for (int i = sel.pick == Pick::kOdd ? 1 : 0; i < count; i += 2) {
        ids.push_back(role_id(sel.role, i));
      }
      break;
    case Pick::kRandom: {
      // k distinct slaves, order-independent of k draws' outcome.
      std::set<int> chosen;
      int want = std::min(sel.arg, count);
      while (static_cast<int>(chosen.size()) < want) {
        chosen.insert(
            static_cast<int>(rng_.NextBounded(static_cast<uint64_t>(count))));
      }
      for (int i : chosen) {
        ids.push_back(role_id(sel.role, i));
      }
      break;
    }
  }
  return ids;
}

void ChaosController::ApplyEvent(const ChaosEvent& event) {
  using Type = ChaosEvent::Type;
  Network& net = cluster_->net();
  if (TraceSink* t = cluster_->sim().trace()) {
    // Fault injections appear as instants on the timeline so a chaos run's
    // anomalies (latency spikes, exclusions) can be read in context.
    t->Instant(TraceRole::kChaos, 0, ChaosEventTraceName(event.type));
  }
  switch (event.type) {
    case Type::kCrash:
      for (NodeId id : Resolve(event.a)) {
        net.SetNodeUp(id, false);
      }
      break;
    case Type::kRestart:
      for (NodeId id : Resolve(event.a)) {
        net.SetNodeUp(id, true);
      }
      break;
    case Type::kPartition:
    case Type::kHeal: {
      bool on = event.type == Type::kPartition;
      std::vector<NodeId> left = Resolve(event.a);
      std::vector<NodeId> right = Resolve(event.b);
      for (NodeId a : left) {
        for (NodeId b : right) {
          if (a != b) {
            net.SetPartitioned(a, b, on);
          }
        }
      }
      break;
    }
    case Type::kHealAll:
      net.ClearPartitions();
      break;
    case Type::kSetLink: {
      std::vector<NodeId> left = Resolve(event.a);
      std::vector<NodeId> right = Resolve(event.b);
      for (NodeId a : left) {
        for (NodeId b : right) {
          if (a != b) {
            net.SetLinkSymmetric(a, b, event.link);
          }
        }
      }
      break;
    }
    case Type::kSetBehavior: {
      std::vector<NodeId> targets = Resolve(event.a);
      for (int s = 0; s < cluster_->num_slaves(); ++s) {
        Slave& slave = cluster_->slave(s);
        if (std::find(targets.begin(), targets.end(), slave.id()) !=
            targets.end()) {
          Slave::Behavior behavior = slave.behavior();
          event.patch.ApplyTo(behavior);
          slave.SetBehavior(behavior);
        }
      }
      break;
    }
    case Type::kBurstWrites: {
      WriteGen gen = cluster_->config().write_gen;
      gen.n_items = cluster_->config().corpus.n_items;
      std::vector<NodeId> targets = Resolve(event.a);
      for (int c = 0; c < cluster_->num_clients(); ++c) {
        Client& client = cluster_->client(c);
        if (std::find(targets.begin(), targets.end(), client.id()) ==
            targets.end()) {
          continue;
        }
        for (int i = 0; i < event.count; ++i) {
          client.IssueWrite(gen.Generate(rng_));
        }
      }
      break;
    }
    case Type::kPauseAuditor:
    case Type::kResumeAuditor: {
      bool pause = event.type == Type::kPauseAuditor;
      std::vector<NodeId> targets = Resolve(event.a);
      bool everything = event.a.role == NodeSelector::Role::kAll;
      for (int a = 0; a < cluster_->num_auditors(); ++a) {
        Auditor& auditor = cluster_->auditor(a);
        if (everything || std::find(targets.begin(), targets.end(),
                                    auditor.id()) != targets.end()) {
          auditor.SetPaused(pause);
        }
      }
      break;
    }
  }
}

ChaosContext ChaosController::MakeContext() {
  ChaosContext ctx;
  ctx.cluster = cluster_;
  ctx.seed = cluster_->config().seed;
  ctx.tick_period = options_.cadence;
  ctx.new_reads = &new_reads_;
  return ctx;
}

void ChaosController::Tick(bool finish) {
  ChaosContext ctx = MakeContext();
  for (auto& checker : checkers_) {
    if (finish) {
      checker->OnFinish(ctx);
    } else {
      checker->OnTick(ctx);
    }
  }
  new_reads_.clear();
}

void ChaosController::Install() {
  if (installed_) {
    return;
  }
  installed_ = true;
  for (const ChaosEvent& event : scenario_.events) {
    cluster_->sim().ScheduleAt(event.at,
                               [this, event] { ApplyEvent(event); });
  }
  cluster_->on_accepted_read = [this](const Cluster::AcceptedRead& read) {
    new_reads_.push_back(read);
  };
  if (!checkers_.empty()) {
    cluster_->AddTickHook(options_.cadence, [this] { Tick(/*finish=*/false); });
  }
}

void ChaosController::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  Tick(/*finish=*/true);
}

std::vector<Violation> ChaosController::violations() const {
  std::vector<Violation> out;
  for (const auto& checker : checkers_) {
    if (checker->violated()) {
      out.push_back(*checker->violation());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Seed sweep.
// ---------------------------------------------------------------------------

bool SeedVerdict::passed(const std::string& invariant) const {
  for (const Violation& v : violations) {
    if (v.invariant == invariant) {
      return false;
    }
  }
  return true;
}

int SweepReport::failures(const std::string& invariant) const {
  int n = 0;
  for (const SeedVerdict& seed : seeds) {
    n += seed.passed(invariant) ? 0 : 1;
  }
  return n;
}

const Violation* SweepReport::first_violation(
    const std::string& invariant) const {
  for (const SeedVerdict& seed : seeds) {
    for (const Violation& v : seed.violations) {
      if (v.invariant == invariant) {
        return &v;
      }
    }
  }
  return nullptr;
}

bool SweepReport::all_passed() const {
  for (const SeedVerdict& seed : seeds) {
    if (!seed.all_passed()) {
      return false;
    }
  }
  return true;
}

std::string SweepReport::Summary() const {
  std::string out;
  char line[512];
  for (const SeedVerdict& seed : seeds) {
    std::snprintf(line, sizeof(line),
                  "seed %-4llu accepted=%-6llu wrong=%-4llu dc-mismatch=%-3llu "
                  "audit-mismatch=%-3llu excluded=%llu  ",
                  static_cast<unsigned long long>(seed.seed),
                  static_cast<unsigned long long>(seed.accepted_reads),
                  static_cast<unsigned long long>(seed.accepted_wrong),
                  static_cast<unsigned long long>(seed.double_check_mismatches),
                  static_cast<unsigned long long>(seed.auditor_mismatches),
                  static_cast<unsigned long long>(seed.slaves_excluded));
    out += line;
    for (const std::string& invariant : invariants) {
      out += invariant + "=" + (seed.passed(invariant) ? "PASS" : "FAIL") + " ";
    }
    out += "\n";
  }
  for (const std::string& invariant : invariants) {
    int failed = failures(invariant);
    std::snprintf(line, sizeof(line), "%-24s %d/%zu seeds passed\n",
                  invariant.c_str(), static_cast<int>(seeds.size()) - failed,
                  seeds.size());
    out += line;
    if (const Violation* v = first_violation(invariant)) {
      out += "  first violation: " + v->ToString() + "\n";
    }
  }
  return out;
}

namespace {

// Runs one seed end to end on the calling thread. Everything it touches —
// simulator, cluster, checkers — is freshly built here, so concurrent calls
// never share mutable state. `invariants_out` is filled only when non-null
// (the caller passes it for seed index 0 alone).
SeedVerdict RunOneSweepSeed(const ClusterConfig& config,
                            const Scenario& scenario,
                            const SweepOptions& options,
                            std::vector<std::unique_ptr<InvariantChecker>>
                                checkers,
                            std::vector<std::string>* invariants_out) {
  if (invariants_out != nullptr) {
    for (const auto& checker : checkers) {
      invariants_out->push_back(checker->name());
    }
  }
  Cluster cluster(config);
  ChaosController controller(&cluster, scenario, std::move(checkers),
                             ChaosControllerOptions{options.cadence});
  controller.Install();
  cluster.RunFor(options.duration);
  controller.Finish();

  SeedVerdict verdict;
  verdict.seed = config.seed;
  verdict.violations = controller.violations();
  Cluster::Totals totals = cluster.ComputeTotals();
  verdict.accepted_reads = totals.clients.reads_accepted;
  verdict.accepted_wrong = cluster.accepted_wrong();
  verdict.double_check_mismatches = totals.clients.double_check_mismatches;
  verdict.auditor_mismatches = totals.auditors.mismatches_found;
  verdict.slaves_excluded = totals.masters.slaves_excluded;
  return verdict;
}

}  // namespace

SweepReport RunSeedSweep(const ClusterConfig& base, const Scenario& scenario,
                         const SweepOptions& options,
                         const CheckerFactory& factory) {
  SweepReport report;
  if (options.num_seeds <= 0) {
    return report;
  }
  const int jobs =
      std::min(std::max(options.jobs, 1), options.num_seeds);
  report.seeds.resize(static_cast<size_t>(options.num_seeds));

  // The factory is caller-supplied and may not be reentrant, so calls are
  // serialized; the checkers each call returns stay thread-confined.
  std::mutex factory_mu;
  auto make_checkers = [&](const ClusterConfig& config) {
    std::lock_guard<std::mutex> lock(factory_mu);
    return factory ? factory(config) : DefaultCheckers(config);
  };
  auto run_indices = [&](int worker) {
    for (int i = worker; i < options.num_seeds; i += jobs) {
      ClusterConfig config = base;
      config.seed = options.first_seed + static_cast<uint64_t>(i);
      // Only the worker that owns index 0 writes report.invariants, so the
      // merge needs no further synchronization: each verdict slot has
      // exactly one writer.
      report.seeds[static_cast<size_t>(i)] = RunOneSweepSeed(
          config, scenario, options, make_checkers(config),
          i == 0 ? &report.invariants : nullptr);
    }
  };

  if (jobs == 1) {
    run_indices(0);
    return report;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    workers.emplace_back(run_indices, w);
  }
  for (std::thread& t : workers) {
    t.join();
  }
  return report;
}

}  // namespace sdr
