// Protocol and cost-model configuration shared by all roles.
#ifndef SDR_SRC_CORE_CONFIG_H_
#define SDR_SRC_CORE_CONFIG_H_

#include <cstdint>

#include "src/crypto/signer.h"
#include "src/runtime/env.h"

namespace sdr {

// Knobs of the paper's protocol (Sections 3 and 4).
struct ProtocolParams {
  // Bound on the inconsistency window: clients reject pledges whose version
  // token is older than this, and masters space write commits at least this
  // far apart (Section 3.1).
  SimTime max_latency = 2 * kSecond;

  // How often masters push signed "keep-alive" version tokens to slaves.
  SimTime keepalive_period = 500 * kMillisecond;

  // Probability that a client double-checks an accepted read with its
  // master (Section 3.3).
  double double_check_probability = 0.05;

  // Extra wait beyond max_latency before the auditor finalizes a version
  // (accounts for client->auditor network delay; Section 3.4).
  SimTime audit_slack = 500 * kMillisecond;

  // Fraction of submitted pledges the auditor actually re-executes
  // (1.0 = audit everything; lower = sampling fallback, Section 3.4).
  double audit_sample_fraction = 1.0;

  // How many slaves each client's read set holds (Section 4's multi-slave
  // variant). The master assigns min(read_fanout, live) slaves at setup;
  // every read goes to all of them, and a disagreement forces a
  // double-check, so a wrong answer passes the comparison only if every
  // member that answers in time lies identically. 1 is the paper's base
  // protocol.
  uint32_t read_fanout = 1;

  // Whether clients forward pledges to the auditor at all.
  bool audit_enabled = true;

  // The auditor verifies submitted pledge signatures in batches: buffered
  // pledges are flushed through one batch verification once this many have
  // accumulated, or after this window, whichever comes first. The window
  // only delays detection, never correctness — it is far inside
  // audit_slack, so version finalization is unaffected.
  uint32_t audit_verify_batch_size = 16;
  SimTime audit_verify_batch_window = 50 * kMillisecond;

  // Capacity of the auditor's verify-dedup cache (entries, LRU). Sized so
  // the working set of version tokens plus recently re-checked pledge
  // signatures fits; evictions are counted in sig_cache_evictions.
  uint32_t audit_verify_cache_entries = 1024;

  // Whether masters exclude slaves proven malicious. Disabling this is an
  // experimentation knob: it exposes steady-state wrong-answer rates that
  // exclusion would otherwise quickly drive to zero.
  bool exclusion_enabled = true;

  // Client-side request timeout before retrying / re-setup.
  SimTime client_timeout = 3 * kSecond;

  // Master-to-master gossip period (slave lists; also peer liveness).
  SimTime gossip_period = 1 * kSecond;
  // A master silent (no delivered gossip) this long is presumed crashed.
  SimTime master_failure_timeout = 5 * kSecond;

  // Greedy-client policing (Section 3.3): a client whose double-check rate
  // exceeds allowance * double_check_probability * observed read rate gets
  // its excess double-checks ignored. The master estimates read rate from
  // audit-side information in the paper; here it uses a token bucket
  // refilled at `greedy_refill_per_second` with burst `greedy_burst`.
  double greedy_refill_per_second = 1.0;
  double greedy_burst = 20.0;
  bool greedy_policing_enabled = false;

  // ---- Fork-consistency checking (src/forkcheck/, beyond the paper) ----
  // Off by default: with fork checking disabled no wire message, timer,
  // rng draw or report field changes, so disabled-mode outputs stay
  // byte-identical to the fork-unaware protocol.
  bool fork_check_enabled = false;
  // How often a client gossips its latest per-slave version vectors to
  // randomly chosen peer clients (client <-> client kVvExchange).
  SimTime vv_gossip_period = 1 * kSecond;
  // How many peers each gossip round targets.
  uint32_t vv_gossip_fanout = 2;

  // ---- Master-side group commit (scale-out, beyond the paper) ----
  // The bundle size. The origin master accumulates up to commit_batch
  // writes (or for commit_window, whichever fills first) and broadcasts
  // them as one ordered bundle; every master commits the bundle as one
  // unit and pushes it to its slaves as one certified run (one head token
  // plus one BatchCommit certificate). commit_batch = 1 commits each write
  // alone, the paper's one-write-per-commit pacing, at two signatures per
  // write; larger bundles divide that cost by about the bundle size while
  // commits stay spaced >= max_latency apart and the inconsistency-window
  // bound is unchanged.
  uint32_t commit_batch = 1;
  SimTime commit_window = 10 * kMillisecond;

  // Signature scheme for all protocol signatures. Ed25519 exercises the
  // real cost asymmetry; HMAC is for very large simulations.
  SignatureScheme scheme = SignatureScheme::kEd25519;
};

// Maps logical work to virtual service time. All values are microseconds of
// simulated server CPU. The shape mirrors the paper's argument: slaves pay
// execute + hash + *sign* per read, the auditor only execute + hash (and can
// cache), masters pay execute + hash per double-check.
//
// It is the simulator's price list only: a ServiceQueue charges these times
// under SimEnv, and under RealEnv (Env::ModelsServiceTime is false) a job
// runs when the event loop reaches it, so the CPU it spends is its service
// time and wall-clock numbers measure the code, not this model.
//
// sign_us tracks bench_e10_micro on the reference machine: with the
// precomputed-table fast path a full Ed25519Sign measures ~32 us and the
// Signer's steady state (pre-expanded key) ~21 us; the naive ladder it
// replaced measured ~177 us. The default models the expanded-key signer the
// slaves actually run, rounded up for message hashing.
struct CostModel {
  double work_unit_us = 5.0;        // per query-executor work unit
  double hash_us_per_kb = 2.0;      // result hashing
  double sign_us = 25.0;            // producing one signature (see above)
  double audit_cache_hit_us = 1.0;  // auditor serving a repeat query

  // Per-role speed multipliers (>1 = faster server).
  double master_speed = 1.0;
  double slave_speed = 1.0;
  double auditor_speed = 1.0;

  SimTime ExecuteTime(uint64_t cost_units, size_t result_bytes) const {
    double us = work_unit_us * static_cast<double>(cost_units) +
                hash_us_per_kb * (static_cast<double>(result_bytes) / 1024.0);
    return static_cast<SimTime>(us);
  }
  SimTime SignTime() const { return static_cast<SimTime>(sign_us); }
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_CONFIG_H_
