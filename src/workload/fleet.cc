#include "src/workload/fleet.h"

#include <algorithm>

#include "src/core/pledge.h"

namespace sdr {

namespace {
// SplitMix64 step: the per-client stream generator. One draw per op seeds
// a throwaway xoshiro Rng, so each client's op sequence is deterministic
// regardless of how the fleet's arrivals interleave.
uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

ClientFleet::ClientFleet(Options options)
    : options_(std::move(options)), rng_(options_.rng_seed) {}

void ClientFleet::Start() {
  rng_ = Rng(options_.rng_seed ^ (static_cast<uint64_t>(id()) << 32));
  if (options_.num_clients == 0 || !options_.query_source ||
      options_.shards.empty()) {
    return;
  }
  client_state_.resize(options_.num_clients);
  for (size_t i = 0; i < options_.num_clients; ++i) {
    client_state_[i] = options_.rng_seed * 0x9E3779B97F4A7C15ull +
                       static_cast<uint64_t>(i);
  }
  ScheduleArrival();
}

void ClientFleet::ScheduleArrival() {
  // Superposition of num_clients independent Poisson streams = one Poisson
  // stream at the aggregate rate, with a uniform client pick per arrival.
  double rate = std::max(
      static_cast<double>(options_.num_clients) * options_.reads_per_second,
      1e-9);
  SimTime gap = static_cast<SimTime>(
      rng_.NextExponential(static_cast<double>(kSecond) / rate));
  env()->ScheduleAfter(gap, [this] {
    DispatchOp();
    ScheduleArrival();
  });
}

void ClientFleet::DispatchOp() {
  size_t client = rng_.NextBounded(options_.num_clients);
  Rng op_rng(SplitMix64(client_state_[client]));
  bool write = options_.write_fraction > 0.0 && options_.write_source &&
               op_rng.NextBool(options_.write_fraction);
  if (write) {
    IssueFleetWrite(op_rng);
  } else {
    IssueFleetRead(op_rng);
  }
}

const Certificate* ClientFleet::SlaveCert(uint32_t shard,
                                          NodeId slave) const {
  for (const Certificate& cert : options_.shards[shard].slave_certs) {
    if (cert.subject == slave) {
      return &cert;
    }
  }
  return nullptr;
}

void ClientFleet::IssueFleetRead(Rng& op_rng) {
  Query query = options_.query_source(op_rng);
  std::vector<ShardSubquery> plan = PlanShardQuery(options_.shard_map, query);
  uint64_t op_id = next_op_id_++;
  Op op;
  op.issued = env()->Now();
  op.remaining = static_cast<uint32_t>(plan.size());
  ++metrics_.reads_issued;
  for (const ShardSubquery& leg : plan) {
    uint32_t shard = std::min<uint32_t>(
        leg.shard, static_cast<uint32_t>(options_.shards.size()) - 1);
    const auto& certs = options_.shards[shard].slave_certs;
    if (certs.empty()) {
      ++metrics_.reads_failed;
      return;  // misconfigured wiring; drop the op
    }
    NodeId slave = certs[op_rng.NextBounded(certs.size())].subject;
    uint64_t sub_id = next_request_id_++;
    ReadRequest msg;
    msg.request_id = sub_id;
    msg.query = leg.query;
    env()->Send(slave, WithType(MsgType::kReadRequest, msg.Encode()));
    subreads_[sub_id] = SubRead{op_id, shard, slave};
    op.subs.push_back(sub_id);
    ++metrics_.subreads_sent;
  }
  op.timeout = env()->ScheduleAfter(options_.params.client_timeout,
                                    [this, op_id] { FailOp(op_id); });
  ops_.emplace(op_id, std::move(op));
}

void ClientFleet::IssueFleetWrite(Rng& op_rng) {
  WriteBatch batch = options_.write_source(op_rng);
  // Split by owning shard, preserving op order within a shard.
  std::map<uint32_t, WriteBatch> by_shard;
  for (WriteOp& wop : batch) {
    uint32_t shard = std::min<uint32_t>(
        options_.shard_map.ShardForKey(wop.key),
        static_cast<uint32_t>(options_.shards.size()) - 1);
    by_shard[shard].push_back(std::move(wop));
  }
  if (by_shard.empty()) {
    return;
  }
  uint64_t op_id = next_op_id_++;
  Op op;
  op.issued = env()->Now();
  op.is_write = true;
  op.remaining = static_cast<uint32_t>(by_shard.size());
  ++metrics_.writes_issued;
  for (auto& [shard, sub_batch] : by_shard) {
    const auto& masters = options_.shards[shard].masters;
    if (masters.empty()) {
      ++metrics_.writes_failed;
      return;
    }
    NodeId master = masters[op_rng.NextBounded(masters.size())];
    uint64_t sub_id = next_request_id_++;
    WriteRequest msg;
    msg.request_id = sub_id;
    msg.batch = std::move(sub_batch);
    env()->Send(master, WithType(MsgType::kWriteRequest, msg.Encode()));
    subwrites_[sub_id] = op_id;
    op.subs.push_back(sub_id);
  }
  op.timeout = env()->ScheduleAfter(options_.params.client_timeout,
                                    [this, op_id] { FailOp(op_id); });
  ops_.emplace(op_id, std::move(op));
}

void ClientFleet::HandleReadReply(NodeId from, BytesView body) {
  auto msg = ReadReply::Decode(body);
  if (!msg.ok()) {
    return;
  }
  auto sit = subreads_.find(msg->request_id);
  if (sit == subreads_.end() || from != sit->second.slave) {
    return;
  }
  uint64_t op_id = sit->second.op;
  uint32_t shard = sit->second.shard;
  if (!msg->ok) {
    FailOp(op_id);  // decline; the fleet does not retry
    return;
  }
  // The paper's full client-side verification, minus double-checks.
  const Pledge& pledge = msg->pledge;
  const Certificate* cert = SlaveCert(shard, from);
  auto key = options_.master_keys.find(pledge.token.master);
  if (cert == nullptr ||
      VerifyRead(options_.params.scheme, msg->result, pledge, *cert,
                 key == options_.master_keys.end() ? nullptr : &key->second,
                 env()->Now(), options_.params.max_latency,
                 &verify_cache_) != ReadVerdict::kAccepted) {
    FailOp(op_id);
    return;
  }
  NodeId auditor = options_.shards[shard].auditor;
  if (options_.params.audit_enabled && auditor != kInvalidNode) {
    AuditSubmit submit;
    submit.pledge = pledge;
    ++metrics_.pledges_forwarded;
    env()->Send(auditor, WithType(MsgType::kAuditSubmit, submit.Encode()));
  }
  subreads_.erase(sit);
  auto oit = ops_.find(op_id);
  if (oit == ops_.end()) {
    return;
  }
  if (--oit->second.remaining == 0) {
    FinishOp(op_id, true);
  }
}

void ClientFleet::HandleWriteReply(BytesView body) {
  auto msg = WriteReply::Decode(body);
  if (!msg.ok()) {
    return;
  }
  auto sit = subwrites_.find(msg->request_id);
  if (sit == subwrites_.end()) {
    return;
  }
  uint64_t op_id = sit->second;
  if (!msg->ok) {
    FailOp(op_id);
    return;
  }
  subwrites_.erase(sit);
  auto oit = ops_.find(op_id);
  if (oit == ops_.end()) {
    return;
  }
  if (--oit->second.remaining == 0) {
    FinishOp(op_id, true);
  }
}

void ClientFleet::FailOp(uint64_t op_id) { FinishOp(op_id, false); }

void ClientFleet::FinishOp(uint64_t op_id, bool ok) {
  auto it = ops_.find(op_id);
  if (it == ops_.end()) {
    return;
  }
  Op& op = it->second;
  env()->Cancel(op.timeout);
  for (uint64_t sub : op.subs) {
    subreads_.erase(sub);
    subwrites_.erase(sub);
  }
  if (op.is_write) {
    if (ok) {
      ++metrics_.writes_committed;
      metrics_.write_rtt_us.Record(env()->Now() - op.issued);
    } else {
      ++metrics_.writes_failed;
    }
  } else {
    if (ok) {
      ++metrics_.reads_accepted;
      metrics_.read_rtt_us.Record(env()->Now() - op.issued);
    } else {
      ++metrics_.reads_failed;
    }
  }
  ops_.erase(it);
}

void ClientFleet::HandleMessage(NodeId from, const Payload& payload) {
  auto type = PeekType(payload);
  if (!type.ok()) {
    return;
  }
  BytesView body = BytesView(payload).substr(1);
  switch (*type) {
    case MsgType::kReadReply:
      HandleReadReply(from, body);
      break;
    case MsgType::kWriteReply:
      HandleWriteReply(body);
      break;
    // The fleet only models the steady-state read/write path; everything
    // else is ignored by design.
    case MsgType::kDirectoryLookup:
    case MsgType::kDirectoryLookupReply:
    case MsgType::kClientHello:
    case MsgType::kClientHelloReply:
    case MsgType::kReadRequest:
    case MsgType::kWriteRequest:
    case MsgType::kDoubleCheckRequest:
    case MsgType::kDoubleCheckReply:
    case MsgType::kAccusation:
    case MsgType::kReassignment:
    case MsgType::kStateUpdateBatch:
    case MsgType::kKeepAlive:
    case MsgType::kSlaveAck:
    case MsgType::kAuditSubmit:
    case MsgType::kBroadcastEnvelope:
    case MsgType::kBadReadNotice:
    case MsgType::kVvExchange:
    case MsgType::kForkEvidence:
    case MsgType::kPlacementQuery:
    case MsgType::kPlacementReply:
      break;
  }
}

}  // namespace sdr
