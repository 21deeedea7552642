// Benchmark harness for the sdr library. Runs one workload for a wall-clock
// budget and prints one JSON object of measurements on stdout:
//
//   sdr_perfbench --workload=<fleet_read|audit_e4|real_loopback>
//                 --seed=<n> --seconds=<s> --trace=<0|1>
//
// Workloads (all inputs derive from --seed) take their shapes from the
// repo's own experiments; perfbench/README.md lists every parameter with
// its source and each deliberate difference.
//   fleet_read     E13c of bench/bench_scale.cc at its --small size: 4
//                  shards x (1 master, 4 slaves, 1 auditor), group commit of
//                  8 in a 50 ms window, 800 items, 100k open-loop fleet
//                  clients at 0.05 reads/s each. The fleet only reads,
//                  signatures are Ed25519 and auditing and double-checks are
//                  on; four E4-shaped closed-loop clients ride along.
//   audit_e4       the E4 cluster of bench/bench_audit.cc and
//                  bench/bench_sim_core.cc: 1 master, 2 slaves, 1 auditor,
//                  4 closed-loop clients, 100 items, HMAC signatures.
//   real_loopback  the E4 topology on the real TCP runtime: one RealEnv and
//                  thread per node over 127.0.0.1, all node threads on one
//                  CPU, Ed25519 signatures, 1 ms think time, no writes.
//
// In every workload one slave per group lies: on 1% of reads, E4's rate,
// on audit_e4; on fleet_read and real_loopback runs see too few lies at 1%
// for a steady detection median and the rate is 4%. Exclusion is off, so
// the liar keeps serving and every run keeps producing detections. A lie is
// detected when the auditor's re-execution or a client double-check
// contradicts the slave's signed pledge; the program records the time from
// the lie's version token to that moment.
//
// Simulated workloads repeat independent clusters (sub-seeds of --seed)
// until the budget is spent; read and detection latency are in simulated
// time there. real_loopback repeats whole deployments and measures them in
// wall time. The first cluster or deployment of a run checks each
// closed-loop accepted read against ground truth and feeds only `correct`;
// the others run without the checker and feed the metrics, so host cost is
// the program's alone. Host cost is process CPU
// time per accepted read and excludes building the deployment, which is
// timed on its own as set-up.
//
// --trace=1 adds the per-layer ledger: operation counts taken from the
// roles' counters, unit costs timed here through the same library calls the
// roles make (signing, pledge verification through the verify cache, query
// execution, the event queue), and their product per accepted read.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "src/core/cluster.h"
#include "src/core/pledge.h"
#include "src/crypto/signer.h"
#include "src/runtime/deployment.h"
#include "src/runtime/real_env.h"
#include "src/sim/simulator.h"
#include "src/store/executor.h"
#include "src/trace/histogram.h"
#include "src/trace/trace.h"
#include "src/workload/workload.h"

namespace sdr {
namespace {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double ThreadCpuNow() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// Host speed reference. The vCPUs of a shared machine change speed in
// phases lasting seconds to minutes, by up to about 1.5x, and every host
// time would carry that. This fixed add-rotate-xor loop belongs to the
// harness, so no change to the program moves it, and it slows down with the
// same phases: next to Ed25519 verification its ratio held within 4% while
// both moved by 20%. Host times are reported at reference speed, scaled by
// kRefNominalUs over the loop's time measured next to them.
constexpr int kRefIterations = 100000;
constexpr double kRefNominalUs = 600.0;

double RefLoopUs() {
  uint32_t v[16];
  for (uint32_t i = 0; i < 16; ++i) {
    v[i] = i * 0x9e3779b9u;
  }
  double t0 = ThreadCpuNow();
  for (int i = 0; i < kRefIterations; ++i) {
    for (int j = 0; j < 16; j += 4) {
      v[j] += v[j + 1];
      v[j + 3] ^= v[j];
      v[j + 3] = (v[j + 3] << 16) | (v[j + 3] >> 16);
      v[j + 2] += v[j + 3];
      v[j + 1] ^= v[j + 2];
      v[j + 1] = (v[j + 1] << 12) | (v[j + 1] >> 20);
    }
    v[i & 15] += static_cast<uint32_t>(i);
  }
  double us = (ThreadCpuNow() - t0) * 1e6;
  static volatile uint32_t sink;
  uint32_t x = 0;
  for (uint32_t w : v) {
    x ^= w;
  }
  sink = x;
  return us;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Quantile of a log-bucketed histogram, interpolated linearly inside the
// bucket the rank falls into (the histogram's own Quantile reports the
// bucket's lower bound, which hides differences smaller than a bucket).
double HistQuantile(const LatencyHistogram& h, double q) {
  if (h.count() == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(h.count());
  const auto& buckets = h.buckets();
  double cum = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    double n = static_cast<double>(buckets[i]);
    if (n > 0 && cum + n >= target) {
      double lo = static_cast<double>(LatencyHistogram::BucketLowerBound(i));
      double hi =
          static_cast<double>(LatencyHistogram::BucketLowerBound(i + 1));
      double v = lo + (hi - lo) * std::clamp((target - cum) / n, 0.0, 1.0);
      return std::clamp(v, static_cast<double>(h.min()),
                        static_cast<double>(h.max()));
    }
    cum += n;
  }
  return static_cast<double>(h.max());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      return false;
    }
    std::string key = a.substr(2, eq - 2);
    std::string value = a.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

// Cumulative role counters, read at one point of a run.
struct Counters {
  uint64_t reads_attempted = 0;
  uint64_t reads_accepted = 0;
  uint64_t writes_attempted = 0;
  uint64_t writes_committed = 0;
  uint64_t ops_failed = 0;
  // Layer counts. A verify is a verify-cache miss: a signature actually
  // checked. The auditor checks its misses in batches, every other role
  // one pledge (or token) at a time, so the two are priced apart.
  uint64_t signs = 0;
  uint64_t verifies = 0;
  uint64_t audit_verifies = 0;
  uint64_t cache_hits = 0;
  uint64_t work_units = 0;
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t wire_bytes = 0;
  uint64_t trace_events = 0;
  uint64_t pledges_received = 0;
  uint64_t reexecutions = 0;
  uint64_t pledges_deduped = 0;
  uint64_t lies_told = 0;
  uint64_t audit_catches = 0;  // lies found by auditor re-execution
  // Auditor accusations a master re-executed and found to check out: an
  // honest slave accused.
  uint64_t accusations_unfounded = 0;

  LatencyHistogram read_rtt_us;
  LatencyHistogram detection_us;
};

constexpr uint64_t Counters::*kCounterFields[] = {
    &Counters::reads_attempted,  &Counters::reads_accepted,
    &Counters::writes_attempted, &Counters::writes_committed,
    &Counters::ops_failed,       &Counters::signs,
    &Counters::verifies,         &Counters::audit_verifies,
    &Counters::cache_hits,       &Counters::work_units,
    &Counters::events,           &Counters::messages,
    &Counters::wire_bytes,       &Counters::trace_events,
    &Counters::pledges_received, &Counters::reexecutions,
    &Counters::pledges_deduped,  &Counters::lies_told,
    &Counters::audit_catches,    &Counters::accusations_unfounded,
};

// Adds the recordings `after` holds beyond `before` into `into`.
void MergeDelta(const LatencyHistogram& after, const LatencyHistogram& before,
                LatencyHistogram* into) {
  LatencyHistogram delta;
  const auto& a = after.buckets();
  const auto& b = before.buckets();
  for (size_t i = 0; i < a.size(); ++i) {
    delta.AddBucketCount(i, a[i] - (i < b.size() ? b[i] : 0));
  }
  if (delta.count() > 0) {
    delta.SetStats(after.min(), after.max(), after.sum() - before.sum());
    into->Merge(delta);
  }
}

// Adds what happened between two readings of one deployment into `total`.
void AddDelta(const Counters& after, const Counters& before, Counters* total) {
  for (auto field : kCounterFields) {
    total->*field += after.*field - before.*field;
  }
  MergeDelta(after.read_rtt_us, before.read_rtt_us, &total->read_rtt_us);
  MergeDelta(after.detection_us, before.detection_us, &total->detection_us);
}

// Everything one run accumulates across its clusters or deployments.
// Host cost is kept per measured instance and read latency per measured
// cluster or, on real_loopback, per one-second window; each is reported as
// its median, so an instance or window caught by a burst of contention on
// the machine does not move the result. Counts and detection latency, which
// has few samples per instance, are pooled in `c`.
struct Tally {
  int instances = 0;  // measured ones; checked instances are not counted
  std::vector<double> setup_s;           // at reference speed
  std::vector<double> host_us_per_read;  // per measured instance, ditto
  std::vector<double> host_raw_us_per_read;  // as the clock read it
  std::vector<double> read_p50_ms;  // per measured cluster or window
  std::vector<double> read_p99_ms;
  std::vector<double> ref_us;  // every reference loop timed
  Counters c;

  bool correct = true;
  std::string why;

  // Times the reference loop once; returns the factor that brings a host
  // time measured now to reference speed.
  double SpeedFactor() {
    double us = RefLoopUs();
    ref_us.push_back(us);
    return kRefNominalUs / us;
  }

  // Records one measured instance: `delta` holds what happened while it was
  // measured, `raw_us` its CPU time and `ref_speed_us` the same at
  // reference speed.
  void AddInstance(const Counters& delta, double raw_us, double ref_speed_us) {
    AddDelta(delta, Counters{}, &c);
    double n = static_cast<double>(std::max<uint64_t>(1, delta.reads_accepted));
    host_raw_us_per_read.push_back(raw_us / n);
    host_us_per_read.push_back(ref_speed_us / n);
    ++instances;
  }

  void AddLatency(const LatencyHistogram& read_rtt_us) {
    read_p50_ms.push_back(HistQuantile(read_rtt_us, 0.50) / 1000.0);
    read_p99_ms.push_back(HistQuantile(read_rtt_us, 0.99) / 1000.0);
  }

  void Fail(const std::string& reason) {
    if (correct) {
      why = reason;
    }
    correct = false;
  }

  // Masters re-execute every accusation the auditor sends; one that checks
  // out means the auditor accused an honest slave.
  void CheckAccusations(const Counters& reading) {
    if (reading.accusations_unfounded > 0) {
      Fail("an auditor accusation did not hold: an honest slave was accused");
    }
  }
};

// Adds one role's counters to a reading.
void AddSlave(const SlaveMetrics& m, Counters* t) {
  t->signs += m.reads_served;
  t->verifies += m.sig_cache_misses;
  t->cache_hits += m.sig_cache_hits;
  t->work_units += m.work_units_executed;
  t->lies_told += m.consistent_lies_told;
}

void AddMaster(const MasterMetrics& m, Counters* t) {
  t->signs += m.commit_signatures + m.keepalives_sent;
  t->verifies += m.sig_cache_misses;
  t->cache_hits += m.sig_cache_hits;
  t->work_units += m.work_units_executed;
  t->accusations_unfounded += m.accusations_unfounded;
}

void AddAuditor(const AuditorMetrics& m, Counters* t) {
  t->audit_verifies += m.sig_cache_misses;
  t->cache_hits += m.sig_cache_hits;
  t->work_units += m.work_units_executed;
  t->pledges_received += m.pledges_received;
  t->reexecutions += m.reexec_memo_misses;
  t->pledges_deduped += m.pledges_deduped;
  t->audit_catches += m.mismatches_found;
}

void AddClient(const ClientMetrics& m, Counters* t) {
  t->reads_attempted += m.reads_issued;
  t->reads_accepted += m.reads_accepted;
  t->writes_attempted += m.writes_issued;
  t->writes_committed += m.writes_committed;
  t->ops_failed += m.reads_rejected_stale + m.reads_rejected_bad_sig +
                   m.reads_rejected_hash + m.reads_failed_declined +
                   m.reads_timed_out + m.writes_rejected;
  t->verifies += m.sig_cache_misses;
  t->cache_hits += m.sig_cache_hits;
}

void AddTraceSink(const TraceSink& sink, Counters* t) {
  auto hists = sink.MergedHistograms();
  t->read_rtt_us.Merge(hists["read_rtt_us"]);
  t->detection_us.Merge(hists["detection_latency_us"]);
  t->trace_events += sink.total_emitted();
}

// Every workload runs from sub-seeds of --seed: measured and checked
// instances from one stream, builds that only time set-up from another.
uint64_t InstanceSeed(uint64_t seed, uint64_t i) { return seed * 1000003 + i; }
uint64_t SetupSeed(uint64_t seed, uint64_t i) {
  return seed * 1000003 + 500000 + i;
}

// Builds timed only for set-up, interleaved with the instances so the
// reported median spans the whole run rather than its first moments.
constexpr int kSetupBuildsPerInstance = 3;

// One slave per group lies on this share of reads: bench_e4's liar.
// fleet_read and real_loopback raise it (see there).
constexpr double kLieProbability = 0.01;

// ---------------------------------------------------------------------------
// Simulated workloads.
// ---------------------------------------------------------------------------

struct SimShape {
  ClusterConfig config;
  // Virtual time each cluster runs before measuring starts: slaves receive
  // their first version tokens and clients finish setup.
  SimTime warmup = 500 * kMillisecond;
  SimTime duration = 0;  // measured span of one cluster, after warm-up
  // The measured span runs in slices of this length, each followed by one
  // reference loop that prices its host time.
  SimTime slice = 0;
  std::set<int> liars;  // global slave indices
  double lie_probability = kLieProbability;
};

// The E4 closed-loop client: 5 ms think time, 2% writes.
void E4Clients(ClusterConfig& c) {
  c.num_clients = 4;
  c.client_mode = Client::LoadMode::kClosedLoop;
  c.client_think_time = 5 * kMillisecond;
  c.client_write_fraction = 0.02;
}

SimShape FleetReadShape(uint64_t seed) {
  SimShape s;
  ClusterConfig& c = s.config;
  c.seed = seed;
  c.num_shards = 4;
  c.num_masters = 1;
  c.slaves_per_master = 4;
  c.num_auditors = 1;
  c.corpus.n_items = 800;
  c.fleet_clients = 100000;
  c.fleet_reads_per_second = 0.05;
  c.params.max_latency = 500 * kMillisecond;
  c.params.keepalive_period = 250 * kMillisecond;
  c.params.commit_batch = 8;
  c.params.commit_window = 50 * kMillisecond;
  c.params.exclusion_enabled = false;
  E4Clients(c);
  for (int shard = 0; shard < c.num_shards; ++shard) {
    s.liars.insert(shard * c.num_masters * c.slaves_per_master);
  }
  // Detection latency differs between clusters by about a quarter, far more
  // than within one, so a run measures many short clusters: about 40 in
  // 30 s. That leaves few lies per cluster at 1%; at 4% a run sees some 500
  // detections. Read latency and host cost matched 500 ms warm-ups and
  // spans within their spread.
  s.lie_probability = 0.04;
  s.warmup = 150 * kMillisecond;
  s.duration = 250 * kMillisecond;
  s.slice = 100 * kMillisecond;
  return s;
}

SimShape AuditE4Shape(uint64_t seed) {
  SimShape s;
  ClusterConfig& c = s.config;
  c.seed = seed;
  c.num_masters = 1;
  c.slaves_per_master = 2;
  c.corpus.n_items = 100;
  c.params.scheme = SignatureScheme::kHmacSha256;
  c.params.double_check_probability = 0.05;
  c.params.exclusion_enabled = false;
  E4Clients(c);
  s.liars = {0};
  s.duration = 20 * kSecond;
  s.slice = 20 * kSecond;
  return s;
}

SimShape ShapeFor(const std::string& workload, uint64_t seed) {
  return workload == "fleet_read" ? FleetReadShape(seed) : AuditE4Shape(seed);
}

// Reads every counter of a simulated cluster.
Counters ReadSim(Cluster& cluster) {
  Counters c;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    AddClient(cluster.client(i).metrics(), &c);
  }
  for (int i = 0; i < cluster.num_slaves(); ++i) {
    AddSlave(cluster.slave(i).metrics(), &c);
  }
  for (int i = 0; i < cluster.num_masters(); ++i) {
    AddMaster(cluster.master(i).metrics(), &c);
  }
  for (int i = 0; i < cluster.num_auditors(); ++i) {
    AddAuditor(cluster.auditor(i).metrics(), &c);
  }
  if (ClientFleet* fleet = cluster.fleet()) {
    const ClientFleet::Metrics& m = fleet->metrics();
    c.reads_attempted += m.reads_issued;
    c.reads_accepted += m.reads_accepted;
    c.writes_attempted += m.writes_issued;
    c.writes_committed += m.writes_committed;
    c.ops_failed += m.reads_failed + m.writes_failed;
    c.verifies += m.sig_cache_misses;
    c.cache_hits += m.sig_cache_hits;
    c.read_rtt_us.Merge(m.read_rtt_us);
  }
  AddTraceSink(*cluster.trace(), &c);
  c.events += cluster.sim().events_processed();
  c.messages += cluster.net().messages_sent();
  c.wire_bytes += cluster.net().bytes_sent();
  return c;
}


ClusterConfig SimConfig(const SimShape& shape, bool check) {
  ClusterConfig config = shape.config;
  const std::set<int> liars = shape.liars;
  const double lie_probability = shape.lie_probability;
  config.slave_behavior = [liars, lie_probability](int index) {
    Slave::Behavior b;
    if (liars.count(index) > 0) {
      b.lie_probability = lie_probability;
    }
    return b;
  };
  config.track_ground_truth = check;
  // The program's histograms (read RTT, detection latency) live in its
  // trace sink; a small ring keeps the event log itself cheap.
  config.trace.enabled = true;
  config.trace.capacity = 4096;
  return config;
}

// Runs one cluster with the ground-truth checker on. It feeds only
// `correct`: every closed-loop accepted read is checked, and only the
// designated liars may have served a wrong one.
void CheckSimInstance(const SimShape& shape, Tally* t) {
  Cluster cluster(SimConfig(shape, /*check=*/true));
  std::set<NodeId> liar_ids;
  for (int i : shape.liars) {
    liar_ids.insert(cluster.slave(i).id());
  }
  uint64_t wrong_from_honest = 0;
  cluster.on_accepted_read = [&](const Cluster::AcceptedRead& r) {
    if (r.wrong && liar_ids.count(r.slave) == 0) {
      ++wrong_from_honest;
    }
  };
  cluster.RunFor(shape.warmup + shape.duration);
  if (wrong_from_honest > 0) {
    t->Fail("an honest slave served a wrong accepted read");
  }
  if (cluster.accepted_checked() == 0) {
    t->Fail("no accepted read was checked against ground truth");
  }
  t->CheckAccusations(ReadSim(cluster));
}

void MeasureSimInstance(const SimShape& shape, Tally* t) {
  Cluster cluster(SimConfig(shape, /*check=*/false));
  cluster.RunFor(shape.warmup);
  Counters before = ReadSim(cluster);
  double raw_us = 0.0;
  double ref_speed_us = 0.0;
  double factor_before = t->SpeedFactor();
  for (SimTime done = 0; done < shape.duration; done += shape.slice) {
    double c0 = CpuNow();
    cluster.RunFor(std::min(shape.slice, shape.duration - done));
    double us = (CpuNow() - c0) * 1e6;
    double factor_after = t->SpeedFactor();
    raw_us += us;
    ref_speed_us += us * 0.5 * (factor_before + factor_after);
    factor_before = factor_after;
  }
  Counters after = ReadSim(cluster);
  Counters delta;
  AddDelta(after, before, &delta);
  t->AddInstance(delta, raw_us, ref_speed_us);
  t->AddLatency(delta.read_rtt_us);
  t->CheckAccusations(after);
}

void RunSim(const Args& args, Tally* t) {
  const double deadline = WallNow() + args.seconds;
  double longest = 0.0;
  for (uint64_t i = 0;; ++i) {
    for (int k = 0; k < kSetupBuildsPerInstance; ++k) {
      ClusterConfig config = SimConfig(
          ShapeFor(args.workload,
                   SetupSeed(args.seed, i * kSetupBuildsPerInstance + k)),
          /*check=*/false);
      double t0 = WallNow();
      auto cluster = std::make_unique<Cluster>(std::move(config));
      double wall_s = WallNow() - t0;
      t->setup_s.push_back(wall_s * t->SpeedFactor());
    }
    double start = WallNow();
    SimShape shape = ShapeFor(args.workload, InstanceSeed(args.seed, i));
    if (i == 0) {
      CheckSimInstance(shape, t);
    } else {
      MeasureSimInstance(shape, t);
    }
    longest = std::max(longest, WallNow() - start);
    // Stop when the next instance would overrun the budget.
    if (i >= 1 && WallNow() + longest > deadline) {
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Real-transport workload: one RealEnv + thread per node on loopback.
// ---------------------------------------------------------------------------

constexpr int kRealLiar = 0;
constexpr double kRealLieProbability = 0.04;
// Clients start 300 ms into a deployment. Read latency is taken over
// one-second windows from its first second on, which leaves out start-up
// and holds about 1,500 reads, so a window's p99 has some 15 beyond it.
constexpr double kRealDeploySeconds = 3.5;
constexpr SimTime kRealWindow = 1 * kSecond;

struct RealNode {
  std::unique_ptr<RealEnv> env;
  std::unique_ptr<TraceSink> sink;
  std::unique_ptr<Directory> directory;
  std::unique_ptr<Master> master;
  std::unique_ptr<Auditor> auditor;
  std::unique_ptr<Slave> slave;
  std::unique_ptr<Client> client;
  // Client-thread-confined ground-truth state (checked deployments only).
  std::unique_ptr<QueryExecutor> truth;
  uint64_t wrong_from_honest = 0;
  uint64_t checked = 0;
  // A client's cumulative read-RTT histogram, copied on its own thread at
  // the end of every window.
  std::vector<LatencyHistogram> rtt_snapshots;
};

void SnapshotEveryWindow(RealNode* rn) {
  rn->env->ScheduleAfter(kRealWindow, [rn] {
    rn->rtt_snapshots.push_back(rn->sink->MergedHistograms()["read_rtt_us"]);
    SnapshotEveryWindow(rn);
  });
}

// Every node thread of a deployment runs on one CPU, the last the main
// thread may use when the run starts, and the main thread on the others.
// The deployment needs well under one CPU, and on a shared machine threads
// spread over several vCPUs wait for each other's wake-ups, which put read
// p99 anywhere from 3 to 9 ms between runs of the same code.
cpu_set_t NodeCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  cpu_set_t node;
  CPU_ZERO(&node);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &node);
      break;
    }
  }
  return node;
}

void KeepMainThreadOff(const cpu_set_t& node) {
  cpu_set_t rest;
  CPU_ZERO(&rest);
  sched_getaffinity(0, sizeof(rest), &rest);
  CPU_XOR(&rest, &rest, &node);
  if (CPU_COUNT(&rest) > 0) {
    pthread_setaffinity_np(pthread_self(), sizeof(rest), &rest);
  }
}

// A full in-process deployment: every roster node gets its own env (own
// port, own thread later), wired full-mesh over 127.0.0.1.
struct RealDeployment {
  DeploymentPlan plan;
  std::vector<NodeId> roster;
  std::vector<RealNode> nodes;
};

// With `check`, every client checks each accepted read against the base
// corpus on its own thread. The clients never write, so every honest
// answer equals the base corpus's.
std::unique_ptr<RealDeployment> BuildReal(uint64_t seed, bool check) {
  DeploymentConfig dc;
  dc.seed = seed;
  dc.num_masters = 1;
  dc.num_auditors = 1;
  dc.slaves_per_master = 2;
  dc.num_clients = 4;
  dc.corpus.n_items = 100;
  dc.client_think_time = 1 * kMillisecond;
  dc.client_write_fraction = 0.0;
  dc.params.double_check_probability = 0.05;
  dc.params.exclusion_enabled = false;

  auto d = std::make_unique<RealDeployment>();
  d->plan = BuildDeployment(dc);
  const DeploymentPlan& plan = d->plan;
  const NodeId liar = plan.slave_ids[kRealLiar];

  std::vector<NodeId>& roster = d->roster;
  roster.push_back(plan.directory_id);
  for (NodeId id : plan.master_ids) roster.push_back(id);
  for (NodeId id : plan.auditor_ids) roster.push_back(id);
  for (NodeId id : plan.slave_ids) roster.push_back(id);
  for (NodeId id : plan.client_ids) roster.push_back(id);

  timespec epoch_ts;
  clock_gettime(CLOCK_REALTIME, &epoch_ts);
  const int64_t epoch_us = static_cast<int64_t>(epoch_ts.tv_sec) * 1000000 +
                           epoch_ts.tv_nsec / 1000;

  std::vector<RealNode>& nodes = d->nodes;
  nodes.resize(roster.size());
  for (size_t i = 0; i < roster.size(); ++i) {
    NodeId id = roster[i];
    RealNode& rn = nodes[i];
    RealEnv::Options eopts;
    eopts.rng_seed = seed * 1000003 + id;
    eopts.epoch_realtime_us = epoch_us;
    if (plan.KindOf(id) == NodeKind::kClient) {
      eopts.start_delay = 300 * kMillisecond;
    }
    rn.env = std::make_unique<RealEnv>(eopts);
    TraceSink::Options topts;
    topts.capacity = 4096;
    rn.sink = std::make_unique<TraceSink>(rn.env.get(), topts);
    rn.env->set_trace(rn.sink.get());

    Node* node = nullptr;
    switch (plan.KindOf(id)) {
      case NodeKind::kDirectory:
        rn.directory = std::make_unique<Directory>();
        rn.directory->Publish(plan.content.content_public_key,
                              plan.master_certs);
        node = rn.directory.get();
        break;
      case NodeKind::kMaster: {
        int index = plan.RoleIndexOf(id);
        rn.master = std::make_unique<Master>(MasterOptionsFor(plan, index));
        for (size_t s = 0; s < plan.slave_ids.size(); ++s) {
          if (plan.OwnerMasterOf(static_cast<int>(s)) == index) {
            rn.master->AddSlave(plan.slave_certs[s]);
          }
        }
        rn.master->SetBaseContent(plan.base);
        node = rn.master.get();
        break;
      }
      case NodeKind::kAuditor:
        rn.auditor = std::make_unique<Auditor>(
            AuditorOptionsFor(plan, plan.RoleIndexOf(id)));
        rn.auditor->SetBaseContent(plan.base);
        node = rn.auditor.get();
        break;
      case NodeKind::kSlave: {
        int index = plan.RoleIndexOf(id);
        Slave::Options sopts = SlaveOptionsFor(plan, index);
        if (index == kRealLiar) {
          sopts.behavior.lie_probability = kRealLieProbability;
        }
        rn.slave = std::make_unique<Slave>(std::move(sopts));
        rn.slave->SetBaseContent(plan.base);
        node = rn.slave.get();
        break;
      }
      case NodeKind::kClient: {
        rn.client = std::make_unique<Client>(ClientOptionsFor(
            plan, plan.RoleIndexOf(id), Client::LoadMode::kClosedLoop));
        if (check) {
          rn.truth = std::make_unique<QueryExecutor>();
          RealNode* self = &rn;
          const DocumentStore* base = &plan.base;
          rn.client->on_accept = [self, base, liar](const Query& query,
                                                    const Pledge& pledge,
                                                    const QueryResult& result) {
            auto outcome = self->truth->Execute(*base, query);
            ++self->checked;
            if (outcome.ok() && !(outcome->result == result) &&
                pledge.slave != liar) {
              ++self->wrong_from_honest;
            }
          };
        }
        node = rn.client.get();
        break;
      }
    }
    rn.env->Attach(node, id);
  }
  for (size_t i = 0; i < roster.size(); ++i) {
    for (size_t j = 0; j < roster.size(); ++j) {
      if (i != j) {
        nodes[i].env->AddPeer(roster[j], "127.0.0.1",
                              nodes[j].env->listen_port());
      }
    }
  }
  return d;
}

// Runs one deployment for `seconds` of wall time. A checked deployment
// feeds only `correct`; a measured one feeds the metrics.
// While the deployment runs, the main thread times the reference loop at
// this period; the deployment's host time is priced at their median.
constexpr double kRealRefPeriodSeconds = 0.1;

void RunRealDeployment(uint64_t seed, double seconds, bool check,
                       const cpu_set_t& cpu, Tally* t) {
  std::unique_ptr<RealDeployment> d = BuildReal(seed, check);
  std::vector<RealNode>& nodes = d->nodes;

  double c0 = CpuNow();
  std::vector<std::thread> threads;
  threads.reserve(nodes.size());
  for (RealNode& rn : nodes) {
    if (rn.client) {
      SnapshotEveryWindow(&rn);
    }
  }
  for (RealNode& rn : nodes) {
    threads.emplace_back([&rn, &cpu] {
      pthread_setaffinity_np(pthread_self(), sizeof(cpu), &cpu);
      rn.env->Run();
    });
  }
  const double end = WallNow() + seconds;
  std::vector<double> factors;
  double ref_cpu_us = 0.0;
  while (WallNow() < end) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::min(kRealRefPeriodSeconds, std::max(0.0, end - WallNow()))));
    factors.push_back(t->SpeedFactor());
    ref_cpu_us += t->ref_us.back();
  }
  for (RealNode& rn : nodes) {
    rn.env->RequestStop();
  }
  for (std::thread& th : threads) {
    th.join();
  }
  const double raw_us = (CpuNow() - c0) * 1e6 - ref_cpu_us;

  Counters c;
  uint64_t checked = 0;
  for (RealNode& rn : nodes) {
    if (rn.client) {
      AddClient(rn.client->metrics(), &c);
      checked += rn.checked;
      if (rn.wrong_from_honest > 0) {
        t->Fail("an honest slave served a wrong accepted read");
      }
    }
    if (rn.slave) AddSlave(rn.slave->metrics(), &c);
    if (rn.master) AddMaster(rn.master->metrics(), &c);
    if (rn.auditor) AddAuditor(rn.auditor->metrics(), &c);
    AddTraceSink(*rn.sink, &c);
    // Every delivered frame is one dispatch of the env's event loop.
    c.events += rn.env->messages_delivered();
    c.messages += rn.env->messages_sent();
    c.wire_bytes += rn.env->bytes_sent();
  }
  t->CheckAccusations(c);
  if (check) {
    if (checked == 0) {
      t->Fail("no accepted read was checked against the corpus");
    }
    return;
  }
  t->AddInstance(c, raw_us, raw_us * Median(factors));

  // Windows every client completed, each pooled over the clients.
  size_t snapshots = SIZE_MAX;
  for (RealNode& rn : nodes) {
    if (rn.client) {
      snapshots = std::min(snapshots, rn.rtt_snapshots.size());
    }
  }
  for (size_t w = 1; w < snapshots; ++w) {
    LatencyHistogram window;
    for (RealNode& rn : nodes) {
      if (rn.client) {
        MergeDelta(rn.rtt_snapshots[w], rn.rtt_snapshots[w - 1], &window);
      }
    }
    t->AddLatency(window);
  }
}

void RunReal(const Args& args, Tally* t) {
  const cpu_set_t cpu = NodeCpu();
  KeepMainThreadOff(cpu);
  const double deadline = WallNow() + args.seconds;
  for (uint64_t i = 0;; ++i) {
    for (int k = 0; k < kSetupBuildsPerInstance; ++k) {
      double t0 = WallNow();
      std::unique_ptr<RealDeployment> d = BuildReal(
          SetupSeed(args.seed, i * kSetupBuildsPerInstance + k), false);
      double wall_s = WallNow() - t0;
      t->setup_s.push_back(wall_s * t->SpeedFactor());
    }
    RunRealDeployment(InstanceSeed(args.seed, i), kRealDeploySeconds,
                      /*check=*/i == 0, cpu, t);
    if (i >= 1 && WallNow() + kRealDeploySeconds + 0.5 > deadline) {
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Unit costs for the per-layer ledger, timed through the library calls the
// roles make.
// ---------------------------------------------------------------------------

struct UnitCosts {
  double sign_us = 0;
  // Per signature checked on a verify-cache miss, through
  // VerifyPledgeAndToken (clients, the fleet) and through an auditor-sized
  // VerifyCache::VerifyBatch (the auditor).
  double verify_us = 0;
  double audit_verify_us = 0;
  double cache_hit_us = 0;  // per signature answered from the verify cache
  double exec_us_per_unit = 0;
  double event_us = 0;
};

template <typename Fn>
double TimePerCall(int calls, Fn&& fn) {
  fn();  // warm
  double t0 = CpuNow();
  for (int i = 0; i < calls; ++i) {
    fn();
  }
  return (CpuNow() - t0) * 1e6 / calls;
}

UnitCosts MeasureUnitCosts(uint64_t seed, SignatureScheme scheme,
                           size_t n_items) {
  UnitCosts u;
  Rng rng(seed);
  KeyPair slave_key = KeyPair::Generate(scheme, rng);
  KeyPair master_key = KeyPair::Generate(scheme, rng);
  Signer slave(slave_key);
  Signer master(master_key);

  CorpusConfig corpus;
  corpus.n_items = n_items;
  Rng corpus_rng(seed + 1);
  DocumentStore store = BuildCatalogCorpus(corpus, corpus_rng);
  QueryMix mix;
  mix.n_items = corpus.n_items;
  std::vector<Query> queries;
  for (int i = 0; i < 2000; ++i) {
    queries.push_back(mix.Generate(rng));
  }

  // Signed pledges, each with its own token, so every first verification
  // is a cache miss.
  const int kPledges = 1000;
  std::vector<Pledge> pledges(kPledges);
  for (int i = 0; i < kPledges; ++i) {
    Pledge& p = pledges[i];
    p.query = queries[i];
    p.result_sha1 = Bytes(20, static_cast<uint8_t>(i));
    p.token.content_version = static_cast<uint64_t>(i) + 1;
    p.token.timestamp = static_cast<SimTime>(i) * kMillisecond;
    p.token.master = 2;
    p.token.signature = master.Sign(p.token.SignedBody());
    p.slave = 3;
    p.signature = slave.Sign(p.SignedBody());
  }
  const Bytes body = pledges[0].SignedBody();
  u.sign_us = TimePerCall(2000, [&] { slave.Sign(body); });

  // Two signatures (pledge + token) per call.
  VerifyCache cache(4 * kPledges);
  int next = 0;
  u.verify_us = TimePerCall(kPledges - 1, [&] {
                  VerifyPledgeAndToken(scheme, slave_key.public_key,
                                       master_key.public_key, pledges[next++],
                                       &cache);
                }) /
                2.0;
  u.cache_hit_us = TimePerCall(20000, [&] {
                     VerifyPledgeAndToken(scheme, slave_key.public_key,
                                          master_key.public_key, pledges[0],
                                          &cache);
                   }) /
                   2.0;

  // The auditor's flush: a batch of pledge signatures, none cached yet.
  const int batch = static_cast<int>(ProtocolParams().audit_verify_batch_size);
  std::vector<std::vector<VerifyItem>> batches(kPledges / batch);
  for (int i = 0; i < kPledges / batch * batch; ++i) {
    batches[i / batch].push_back(
        {slave_key.public_key, pledges[i].SignedBody(), pledges[i].signature});
  }
  VerifyCache audit_cache(4 * kPledges);
  next = 0;
  u.audit_verify_us =
      TimePerCall(static_cast<int>(batches.size()) - 1,
                  [&] { audit_cache.VerifyBatch(scheme, batches[next++]); }) /
      batch;

  QueryExecutor executor;
  uint64_t units = 0;
  double t0 = CpuNow();
  for (const Query& q : queries) {
    auto outcome = executor.Execute(store, q);
    if (outcome.ok()) {
      units += outcome->cost;
    }
  }
  u.exec_us_per_unit = (CpuNow() - t0) * 1e6 / std::max<uint64_t>(1, units);

  Simulator sim(seed);
  const int kEvents = 200000;
  uint64_t fired = 0;
  double e0 = CpuNow();
  for (int i = 0; i < kEvents; ++i) {
    sim.ScheduleAfter(static_cast<SimTime>(rng.NextBounded(1000)),
                      [&fired] { ++fired; });
  }
  sim.RunUntilIdle();
  u.event_us = (CpuNow() - e0) * 1e6 / kEvents;
  return u;
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Print(const Tally& t, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"why\": \"%s\", \"instances\": %d, "
              "\"lies\": %llu, \"detections\": %llu, "
              "\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              t.correct ? "true" : "false", t.why.c_str(), t.instances,
              static_cast<unsigned long long>(t.c.lies_told),
              static_cast<unsigned long long>(t.c.detection_us.count()),
              static_cast<unsigned long long>(t.c.reads_attempted +
                                              t.c.writes_attempted),
              static_cast<unsigned long long>(t.c.ops_failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sdr_perfbench --workload=<fleet_read|audit_e4|"
                 "real_loopback> --seed=<n> --seconds=<s> --trace=<0|1>\n");
    return 2;
  }
  Tally t;
  SignatureScheme scheme = SignatureScheme::kEd25519;
  size_t n_items = 100;
  if (args.workload == "fleet_read" || args.workload == "audit_e4") {
    RunSim(args, &t);
    const ClusterConfig& c = ShapeFor(args.workload, args.seed).config;
    scheme = c.params.scheme;
    n_items = c.corpus.n_items;
  } else if (args.workload == "real_loopback") {
    RunReal(args, &t);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  const double reads = static_cast<double>(std::max<uint64_t>(1, t.c.reads_accepted));
  if (t.c.reads_accepted == 0) t.Fail("no read was accepted");
  if (t.c.lies_told == 0) t.Fail("no lie was told");
  if (t.c.detection_us.count() == 0) {
    t.Fail("no lie was detected");
  }

  std::vector<Metric> metrics;
  const double host_us = Median(t.host_us_per_read);
  const double host_raw_us = Median(t.host_raw_us_per_read);
  if (!args.trace) {
    metrics = {
        {"host_us_per_read", host_us, "us"},
        {"read_p50_ms", Median(t.read_p50_ms), "ms"},
        {"read_p99_ms", Median(t.read_p99_ms), "ms"},
        {"detect_p50_ms", HistQuantile(t.c.detection_us, 0.50) / 1000.0, "ms"},
        {"setup_s", Median(t.setup_s), "s"},
    };
  } else {
    UnitCosts u = MeasureUnitCosts(args.seed, scheme, n_items);
    auto per_read = [&](uint64_t n) { return static_cast<double>(n) / reads; };
    double sign = u.sign_us * per_read(t.c.signs);
    double verify = u.verify_us * per_read(t.c.verifies) +
                    u.audit_verify_us * per_read(t.c.audit_verifies);
    double cache_hit = u.cache_hit_us * per_read(t.c.cache_hits);
    double exec = u.exec_us_per_unit * per_read(t.c.work_units);
    double queue = u.event_us * per_read(t.c.events);
    double modeled = sign + verify + cache_hit + exec + queue;
    const uint64_t all_verifies = t.c.verifies + t.c.audit_verifies;
    metrics = {
        {"ledger_sign_us_per_read", sign, "us"},
        {"ledger_verify_us_per_read", verify, "us"},
        {"ledger_cachehit_us_per_read", cache_hit, "us"},
        {"ledger_exec_us_per_read", exec, "us"},
        {"ledger_queue_us_per_read", queue, "us"},
        // The unit costs are timed at the machine's speed of the moment, so
        // they are compared with host time as the clock read it.
        {"ledger_closure_pct", 100.0 * modeled / std::max(host_raw_us, 1e-9),
         "%"},
        {"host_raw_us_per_read", host_raw_us, "us"},
        {"host_speed_factor", kRefNominalUs / Median(t.ref_us), "ratio"},
        {"unit_sign_us", u.sign_us, "us"},
        {"unit_verify_us", u.verify_us, "us"},
        {"unit_verify_audit_us", u.audit_verify_us, "us"},
        {"unit_cachehit_us", u.cache_hit_us, "us"},
        {"unit_exec_us_per_wu", u.exec_us_per_unit, "us"},
        {"unit_event_us", u.event_us, "us"},
        {"signs_per_read", per_read(t.c.signs), "count"},
        {"verifies_per_read", per_read(all_verifies), "count"},
        {"verify_cache_hit_pct",
         100.0 * static_cast<double>(t.c.cache_hits) /
             std::max<uint64_t>(1, t.c.cache_hits + all_verifies),
         "%"},
        {"work_units_per_read", per_read(t.c.work_units), "count"},
        {"events_per_read", per_read(t.c.events), "count"},
        {"msgs_per_read", per_read(t.c.messages), "count"},
        {"wire_bytes_per_read", per_read(t.c.wire_bytes), "B"},
        {"trace_events_per_read", per_read(t.c.trace_events), "count"},
        {"audit_reexec_per_pledge",
         static_cast<double>(t.c.reexecutions) /
             std::max<uint64_t>(1, t.c.pledges_received),
         "count"},
        {"audit_dedup_pct",
         100.0 * static_cast<double>(t.c.pledges_deduped) /
             std::max<uint64_t>(1, t.c.pledges_received),
         "%"},
        {"audit_caught_pct",
         100.0 * static_cast<double>(t.c.audit_catches) /
             std::max<uint64_t>(1, t.c.lies_told),
         "%"},
    };
  }
  Print(t, metrics);
  return 0;
}

}  // namespace
}  // namespace sdr

int main(int argc, char** argv) { return sdr::Main(argc, argv); }
