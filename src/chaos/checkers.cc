#include "src/chaos/checkers.h"

#include <algorithm>
#include <cstdio>

#include "src/chaos/scenario.h"

namespace sdr {

std::string Violation::ToString() const {
  return invariant + " violated (seed=" + std::to_string(seed) +
         ", t=" + FormatSimTime(time) + "): " + evidence;
}

void InvariantChecker::Report(const ChaosContext& ctx, std::string evidence) {
  if (violation_.has_value()) {
    return;
  }
  violation_ = Violation{name(), ctx.seed, ctx.now(), std::move(evidence)};
}

// ---------------------------------------------------------------------------
// NoWrongReadUndetected.
// ---------------------------------------------------------------------------

uint64_t NoWrongReadUndetected::EvidenceTotal(const ChaosContext& ctx) const {
  // Detection evidence the protocol can produce for a consistent lie:
  // the client's own double-check mismatch (immediate discovery) or the
  // auditor re-execution mismatch (delayed discovery; the bad-read notice
  // to the victim is downstream of it and may be lost to a partition, so
  // the mismatch itself is the countable event).
  const Cluster::Totals totals = ctx.cluster->ComputeTotals();
  return totals.clients.double_check_mismatches +
         totals.auditors.mismatches_found;
}

void NoWrongReadUndetected::OnTick(const ChaosContext& ctx) {
  for (const Cluster::AcceptedRead& read : *ctx.new_reads) {
    if (read.checked && read.wrong) {
      pending_wrong_.push_back(read);
    }
  }
  // Each unit of evidence vouches for one wrong accept, oldest first.
  uint64_t evidence = EvidenceTotal(ctx);
  while (!pending_wrong_.empty() && matched_ < evidence) {
    pending_wrong_.pop_front();
    ++matched_;
  }
  if (!pending_wrong_.empty() &&
      ctx.now() - pending_wrong_.front().accepted_at > bound_) {
    const Cluster::AcceptedRead& read = pending_wrong_.front();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "wrong read accepted by client %d from slave node %u at "
                  "version %llu (t=%s) with no double-check mismatch or "
                  "auditor mismatch within %s",
                  read.client_index, read.slave,
                  static_cast<unsigned long long>(read.version),
                  FormatSimTime(read.accepted_at).c_str(),
                  FormatSimTime(bound_).c_str());
    Report(ctx, buf);
  }
}

// ---------------------------------------------------------------------------
// DetectionLatencyBound.
// ---------------------------------------------------------------------------

void DetectionLatencyBound::OnTick(const ChaosContext& ctx) {
  if (!ctx.cluster->config().params.exclusion_enabled) {
    return;  // nothing to bound when corrective action is switched off
  }
  for (int s = 0; s < ctx.cluster->num_slaves(); ++s) {
    const Slave& slave = ctx.cluster->slave(s);
    if (slave.metrics().consistent_lies_told > 0 &&
        first_lie_seen_.count(s) == 0) {
      first_lie_seen_[s] = ctx.now();
    }
  }
  for (const auto& [s, first_lie] : first_lie_seen_) {
    if (excluded_[s]) {
      continue;
    }
    const Slave& slave = ctx.cluster->slave(s);
    if (ctx.cluster->ExcludedByAnyMaster(slave.id())) {
      excluded_[s] = true;
      continue;
    }
    if (ctx.now() - first_lie > bound_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "slave %d (node %u) told %llu consistent lies starting "
                    "~%s but no master excluded it within %s",
                    s, slave.id(),
                    static_cast<unsigned long long>(
                        slave.metrics().consistent_lies_told),
                    FormatSimTime(first_lie).c_str(),
                    FormatSimTime(bound_).c_str());
      Report(ctx, buf);
    }
  }
}

// ---------------------------------------------------------------------------
// ExclusionPermanent.
// ---------------------------------------------------------------------------

void ExclusionPermanent::OnTick(const ChaosContext& ctx) {
  for (int s = 0; s < ctx.cluster->num_slaves(); ++s) {
    NodeId node = ctx.cluster->slave(s).id();
    if (excluded_at_.count(node) == 0 &&
        ctx.cluster->ExcludedByAnyMaster(node)) {
      excluded_at_[node] = ctx.now();
    }
  }
  for (const Cluster::AcceptedRead& read : *ctx.new_reads) {
    auto it = excluded_at_.find(read.slave);
    if (it == excluded_at_.end()) {
      continue;
    }
    if (read.accepted_at > it->second + grace_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "slave node %u was excluded at %s yet client %d accepted "
                    "a read from it at %s (grace %s)",
                    read.slave, FormatSimTime(it->second).c_str(),
                    read.client_index,
                    FormatSimTime(read.accepted_at).c_str(),
                    FormatSimTime(grace_).c_str());
      Report(ctx, buf);
    }
  }
}

// ---------------------------------------------------------------------------
// AvailabilityFloor.
// ---------------------------------------------------------------------------

void AvailabilityFloor::OnTick(const ChaosContext& ctx) {
  if (ctx.now() <= warmup_) {
    return;  // setup phase: clients are still performing their handshakes
  }
  if (ctx.cluster->net().active_partitions() > 0) {
    return;  // the floor only binds outside partition windows
  }
  window_.push_back({ctx.tick_period, ctx.new_reads->size()});
  window_time_ += ctx.tick_period;
  window_accepts_ += ctx.new_reads->size();
  while (!window_.empty() && window_time_ - window_.front().dt >= min_window_) {
    window_time_ -= window_.front().dt;
    window_accepts_ -= window_.front().accepts;
    window_.pop_front();
  }
  if (window_time_ < min_window_) {
    return;
  }
  double rate = static_cast<double>(window_accepts_) /
                (static_cast<double>(window_time_) / kSecond);
  if (rate < floor_) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "accepted-read rate outside partitions fell to %.3f/s over "
                  "the last %s of clear time (floor %.3f/s)",
                  rate, FormatSimTime(window_time_).c_str(), floor_);
    Report(ctx, buf);
  }
}

// ---------------------------------------------------------------------------
// NoForkUndetected.
// ---------------------------------------------------------------------------

void NoForkUndetected::OnTick(const ChaosContext& ctx) {
  for (int s = 0; s < ctx.cluster->num_slaves(); ++s) {
    // Track a slave only once it has served *divergent* reads to BOTH of
    // its client sets: a forked slave whose assigned clients all landed in
    // one set presents one consistent history — there is no second head to
    // catch, and freshness/audit bounds cover plain staleness. Once both
    // counters tick, both chains carry a post-divergence commitment, so a
    // conflicting pair provably exists and the detection clock can start.
    if (ctx.cluster->slave(s).metrics().equivocations_served > 0 &&
        ctx.cluster->slave(s).metrics().honest_serves_forked > 0 &&
        tracks_.count(s) == 0) {
      tracks_[s] = Track{ctx.now(), false};
    }
  }
  for (auto& [s, track] : tracks_) {
    if (track.resolved) {
      continue;
    }
    NodeId node = ctx.cluster->slave(s).id();
    bool named = false;
    for (const EvidenceChain& chain : ctx.cluster->fork_evidence()) {
      if (chain.a.vv.slave == node) {
        named = true;
        break;
      }
    }
    bool excluded_ok = !ctx.cluster->config().params.exclusion_enabled ||
                       ctx.cluster->ExcludedByAnyMaster(node);
    if (named && excluded_ok) {
      track.resolved = true;
      continue;
    }
    if (ctx.now() - track.divergence_served > bound_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "slave %d (node %u) served %llu equivocating reads "
                    "(divergent both ways since ~%s) but %s within %s",
                    s, node,
                    static_cast<unsigned long long>(
                        ctx.cluster->slave(s).metrics().equivocations_served),
                    FormatSimTime(track.divergence_served).c_str(),
                    named ? "no master excluded it"
                          : "no fork evidence names it",
                    FormatSimTime(bound_).c_str());
      Report(ctx, buf);
    }
  }
}

// ---------------------------------------------------------------------------
// EvidenceTransferable.
// ---------------------------------------------------------------------------

void EvidenceTransferable::OnTick(const ChaosContext& ctx) {
  const std::vector<EvidenceChain>& chains = ctx.cluster->fork_evidence();
  for (; checked_ < chains.size(); ++checked_) {
    std::string why;
    if (!VerifyEvidenceChain(ctx.cluster->config().params.scheme,
                             ctx.cluster->content().content_public_key,
                             chains[checked_], &why)) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "evidence chain %zu (slave node %u, version %llu) does "
                    "not verify offline: %s",
                    checked_, chains[checked_].a.vv.slave,
                    static_cast<unsigned long long>(
                        chains[checked_].a.vv.content_version),
                    why.c_str());
      Report(ctx, buf);
    }
  }
}

// ---------------------------------------------------------------------------
// TokenFreshness.
// ---------------------------------------------------------------------------

void TokenFreshness::OnTick(const ChaosContext& ctx) {
  for (const Cluster::AcceptedRead& read : *ctx.new_reads) {
    // The client verified freshness when the reply arrived; acceptance may
    // lag by one double-check round trip, which is bounded by the client
    // timeout (a silent master resolves the check at that point).
    SimTime bound =
        bound_override_ > 0
            ? bound_override_
            : ctx.cluster->client(read.client_index).effective_max_latency() +
                  ctx.cluster->config().params.client_timeout;
    SimTime age = read.accepted_at - read.token_timestamp;
    if (age > bound) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "client %d accepted a read from slave node %u whose "
                    "version token was %s old (bound %s)",
                    read.client_index, read.slave,
                    FormatSimTime(age).c_str(), FormatSimTime(bound).c_str());
      Report(ctx, buf);
    }
  }
}

// ---------------------------------------------------------------------------

std::vector<std::unique_ptr<InvariantChecker>> DefaultCheckers(
    const ClusterConfig& config) {
  const ProtocolParams& params = config.params;
  // Delayed discovery needs the pledge to reach the auditor and the audit
  // to run; the finalization rule bounds that by max_latency + slack plus
  // queueing, so give it a few multiples before calling a wrong read
  // silent.
  SimTime detection_bound =
      8 * (params.max_latency + params.audit_slack) + 10 * kSecond;
  std::vector<std::unique_ptr<InvariantChecker>> checkers;
  checkers.push_back(std::make_unique<NoWrongReadUndetected>(detection_bound));
  checkers.push_back(std::make_unique<DetectionLatencyBound>(detection_bound));
  checkers.push_back(
      std::make_unique<ExclusionPermanent>(params.client_timeout));
  checkers.push_back(std::make_unique<AvailabilityFloor>(
      /*min_accepts_per_second=*/0.5, /*warmup=*/5 * kSecond,
      /*min_window=*/10 * kSecond));
  checkers.push_back(std::make_unique<TokenFreshness>());
  if (params.fork_check_enabled) {
    // Fork detection additionally waits on client gossip or an audit
    // submission to pair the conflicting commitments, then the evidence
    // round trip to the owning master — all inside the detection bound's
    // slack.
    checkers.push_back(std::make_unique<NoForkUndetected>(detection_bound));
    checkers.push_back(std::make_unique<EvidenceTransferable>());
  }
  return checkers;
}

}  // namespace sdr
