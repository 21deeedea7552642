// E7 — The write-throughput cap and the read/write-ratio sweet spot
// (paper Sections 2, 3.1, 6).
//
// Claims:
//   - "two write operations cannot be, time-wise, closer than max_latency
//     to each other" => committed write throughput <= 1/max_latency;
//   - the architecture therefore suits workloads whose reads outnumber
//     writes "by at least an order of magnitude"; read goodput is
//     unaffected by spacing as long as writes stay below the cap, while
//     write latency explodes once offered write load exceeds it.
#include "bench/bench_util.h"
#include "src/core/cluster.h"

namespace sdr {
namespace {

struct Sample {
  double committed_per_sec = 0;
  double cap_per_sec = 0;
  double write_latency_ms = 0;
  double reads_per_sec = 0;
  // Commit-path signatures per committed write, summed across the group
  // (each replica master signs one head token + one batch certificate per
  // commit, here one write each), and the same cost projected under group
  // commit at batch 8, where a commit carries 8 writes (see
  // ProtocolParams::commit_batch), i.e. 2 * masters / batch.
  double sigs_per_write = 0;
  double sigs_per_write_batch8 = 0;
};

Sample Run(SimTime max_latency, double offered_writes_per_sec,
           double read_fraction_clients, uint64_t seed) {
  ClusterConfig config;
  config.seed = seed;
  config.num_masters = 2;
  config.slaves_per_master = 1;
  config.num_clients = 4;
  config.corpus.n_items = 50;
  config.params.scheme = SignatureScheme::kHmacSha256;
  config.params.double_check_probability = 0.0;
  config.params.audit_enabled = false;
  config.params.max_latency = max_latency;
  config.params.keepalive_period =
      std::min<SimTime>(250 * kMillisecond, max_latency / 2);
  config.client_mode = Client::LoadMode::kOpenLoop;
  config.track_ground_truth = false;
  // Some clients write at the offered rate; the rest read.
  int writers = std::max(1, static_cast<int>(
                                (1.0 - read_fraction_clients) *
                                config.num_clients));
  config.tweak_client = [&, writers](int index, Client::Options& opts) {
    if (index < writers) {
      opts.reads_per_second = offered_writes_per_sec / writers;
      opts.write_fraction = 1.0;  // pure writer
    } else {
      opts.reads_per_second = 5.0;
      opts.write_fraction = 0.0;
    }
  };
  Cluster cluster(config);
  const SimTime kRun = 120 * kSecond;
  cluster.RunFor(kRun);

  Sample s;
  uint64_t committed = cluster.master(0).metrics().writes_committed;
  s.committed_per_sec =
      static_cast<double>(committed) / (static_cast<double>(kRun) / kSecond);
  s.cap_per_sec = static_cast<double>(kSecond) / static_cast<double>(max_latency);
  uint64_t reads = 0;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    reads += cluster.client(c).metrics().reads_accepted;
  }
  s.reads_per_sec =
      static_cast<double>(reads) / (static_cast<double>(kRun) / kSecond);
  s.write_latency_ms =
      cluster.client(0).metrics().write_latency_us.Median() / 1000.0;
  uint64_t commit_sigs = 0;
  for (int m = 0; m < config.num_masters; ++m) {
    commit_sigs += cluster.master(m).metrics().commit_signatures;
  }
  if (committed > 0) {
    s.sigs_per_write =
        static_cast<double>(commit_sigs) / static_cast<double>(committed);
  }
  s.sigs_per_write_batch8 = 2.0 * config.num_masters / 8.0;
  return s;
}

}  // namespace
}  // namespace sdr

int main(int argc, char** argv) {
  sdr::ParseBenchFlags(argc, argv);
  using namespace sdr;
  PrintHeader("E7: write throughput cap = 1/max_latency (Section 3.1)");
  Note("offered write load 4/s from 1 writer; 3 readers at 5/s each;");
  Note("sweep max_latency and watch commits clamp to the cap");
  Row("%-12s %10s %12s %14s %12s %10s %10s", "max_latency", "cap w/s",
      "committed/s", "writeLat ms", "reads/s", "sigs/wr", "proj@b8");
  for (SimTime ml : {250 * kMillisecond, 500 * kMillisecond, 1 * kSecond,
                     2 * kSecond, 4 * kSecond}) {
    Sample s = Run(ml, /*offered=*/4.0, /*read fraction=*/0.75, 17);
    Row("%-12.2f %10.1f %12.2f %14.1f %12.1f %10.2f %10.2f",
        static_cast<double>(ml) / kSecond, s.cap_per_sec, s.committed_per_sec,
        s.write_latency_ms, s.reads_per_sec, s.sigs_per_write,
        s.sigs_per_write_batch8);
  }

  PrintHeader("E7b: offered write load vs the cap (max_latency = 1s)");
  Row("%-14s %12s %14s %12s %10s %10s", "offered w/s", "committed/s",
      "writeLat ms", "reads/s", "sigs/wr", "proj@b8");
  for (double offered : {0.2, 0.5, 0.9, 2.0, 4.0}) {
    Sample s = Run(1 * kSecond, offered, 0.75, 18);
    Row("%-14.2f %12.2f %14.1f %12.1f %10.2f %10.2f", offered,
        s.committed_per_sec, s.write_latency_ms, s.reads_per_sec,
        s.sigs_per_write, s.sigs_per_write_batch8);
  }
  Note("shape: commits saturate at 1/max_latency; past the cap the write");
  Note("queue builds and write latency grows without bound, while read");
  Note("goodput stays flat -- hence the high read:write ratio requirement.");
  Note("sigs/wr is the measured commit-path signing cost per write;");
  Note("proj@b8 projects it under group commit (--commit_batch=8, one");
  Note("token + one batch certificate per bundle; bench_scale measures it).");
  return 0;
}
