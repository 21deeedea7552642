#include "src/broadcast/total_order.h"

#include <algorithm>
#include <cassert>

#include "src/util/logging.h"
#include "src/util/serde.h"

namespace sdr {

TotalOrderBroadcast::TotalOrderBroadcast(Env* env, Node* owner, Config config,
                                         SendFn send, DeliverFn deliver)
    : env_(env),
      owner_(owner),
      config_(std::move(config)),
      send_(std::move(send)),
      deliver_(std::move(deliver)) {
  assert(!config_.group.empty());
}

NodeId TotalOrderBroadcast::sequencer() const {
  return config_.group[epoch_ % config_.group.size()];
}

bool TotalOrderBroadcast::IsSequencer() const {
  return sequencer() == owner_->id();
}

void TotalOrderBroadcast::Start() {
  started_ = true;
  last_heard_ = env_->Now();
  HeartbeatTick();
  RetransmitTick();
  FailureCheckTick();
}

void TotalOrderBroadcast::SendToAll(const Bytes& payload, bool include_self) {
  for (NodeId member : config_.group) {
    if (member == owner_->id()) {
      if (include_self) {
        OnMessage(owner_->id(), payload);
      }
      continue;
    }
    send_(member, payload);
  }
}

uint64_t TotalOrderBroadcast::Broadcast(Bytes payload) {
  uint64_t local_id = next_local_id_++;
  pending_[local_id] = payload;

  if (IsSequencer()) {
    OrderAndSend(owner_->id(), local_id, payload);
  } else {
    Writer w;
    w.U8(kSubmit);
    w.U64(epoch_);
    w.U32(owner_->id());
    w.U64(local_id);
    w.Blob(payload);
    send_(sequencer(), w.Take());
  }
  return local_id;
}

void TotalOrderBroadcast::OnMessage(NodeId from, BytesView payload) {
  if (!Active()) {
    return;
  }
  Reader r(payload);
  uint8_t type = r.U8();
  switch (type) {
    case kSubmit:
      HandleSubmit(from, r);
      break;
    case kOrdered:
      HandleOrdered(r);
      break;
    case kNack:
      HandleNack(from, r);
      break;
    case kHeartbeat:
      HandleHeartbeat(from, r);
      break;
    case kNewEpoch:
      HandleNewEpoch(from, r);
      break;
    case kSyncInfo:
      HandleSyncInfo(r);
      break;
    default:
      SDR_LOG(kWarn) << "broadcast: unknown message type " << int(type);
  }
}

void TotalOrderBroadcast::AdoptEpoch(uint64_t epoch) {
  if (epoch > epoch_) {
    epoch_ = epoch;
    syncing_ = false;
    last_heard_ = env_->Now();
  }
}

void TotalOrderBroadcast::HandleSubmit(NodeId from, Reader& r) {
  uint64_t epoch = r.U64();
  NodeId origin = r.U32();
  uint64_t local_id = r.U64();
  Bytes payload = r.Blob();
  if (!r.ok()) {
    return;
  }
  (void)from;
  AdoptEpoch(epoch);
  if (!IsSequencer()) {
    // Misrouted (stale sequencer view at the origin); the origin's
    // retransmit timer will redirect to the current sequencer.
    return;
  }
  if (syncing_) {
    // Defer ordering until takeover sync completes; the origin retransmits.
    return;
  }
  OrderAndSend(origin, local_id, payload);
}

void TotalOrderBroadcast::OrderAndSend(NodeId origin, uint64_t local_id,
                                       const Bytes& payload) {
  auto key = std::make_pair(origin, local_id);
  auto it = assigned_.find(key);
  uint64_t seq;
  if (it != assigned_.end()) {
    seq = it->second;  // duplicate submit: re-announce the same ordering
  } else {
    seq = next_seq_++;
    assigned_[key] = seq;
    StoreOrdered(seq, OrderedMsg{origin, local_id, payload});
    DeliverReady();
  }
  Writer w;
  w.U8(kOrdered);
  w.U64(epoch_);
  w.U64(seq);
  w.U32(origin);
  w.U64(local_id);
  w.Blob(payload);
  SendToAll(w.Take(), /*include_self=*/false);
}

void TotalOrderBroadcast::HandleOrdered(Reader& r) {
  uint64_t epoch = r.U64();
  uint64_t seq = r.U64();
  NodeId origin = r.U32();
  uint64_t local_id = r.U64();
  Bytes payload = r.Blob();
  if (!r.ok()) {
    return;
  }
  AdoptEpoch(epoch);
  last_heard_ = env_->Now();
  StoreOrdered(seq, OrderedMsg{origin, local_id, payload});
  DeliverReady();
  MaybeNackGap();
}

void TotalOrderBroadcast::StoreOrdered(uint64_t seq, OrderedMsg msg) {
  if (seq <= delivered_seq_ || log_.count(seq) > 0) {
    return;  // duplicate
  }
  if (msg.origin == owner_->id()) {
    pending_.erase(msg.local_id);
  }
  log_.emplace(seq, std::move(msg));
}

void TotalOrderBroadcast::DeliverReady() {
  auto it = log_.find(delivered_seq_ + 1);
  while (it != log_.end()) {
    const OrderedMsg& msg = it->second;
    ++delivered_seq_;
    deliver_(delivered_seq_, msg.origin, msg.payload);
    it = log_.find(delivered_seq_ + 1);
  }
}

void TotalOrderBroadcast::MaybeNackGap() {
  // A sequencer that took over also knows of the numbers its sync round
  // adopted, which only the other members may hold.
  uint64_t max_seen = MaxKnownSeq();
  if (IsSequencer()) {
    max_seen = std::max(max_seen, next_seq_ - 1);
  }
  if (max_seen > delivered_seq_ && log_.count(delivered_seq_ + 1) == 0) {
    // One nack per distinct gap per retransmit window. Jitter-scale gaps
    // close by themselves; a gap from real loss is re-nacked after the
    // window by the next arrival or sequencer heartbeat.
    uint64_t want = delivered_seq_ + 1;
    SimTime now = env_->Now();
    if (want == last_nack_seq_ &&
        now - last_nack_time_ < config_.retransmit_timeout) {
      return;
    }
    last_nack_seq_ = want;
    last_nack_time_ = now;
    Writer w;
    w.U8(kNack);
    w.U64(epoch_);
    w.U64(want);
    if (IsSequencer()) {
      SendToAll(w.Take(), /*include_self=*/false);
    } else {
      send_(sequencer(), w.Take());
    }
  }
}

void TotalOrderBroadcast::HandleNack(NodeId from, Reader& r) {
  uint64_t epoch = r.U64();
  uint64_t from_seq = r.U64();
  if (!r.ok()) {
    return;
  }
  AdoptEpoch(epoch);
  // Serve from our log regardless of role: during takeover the new
  // sequencer may be the one asking.
  constexpr uint64_t kMaxBatch = 64;
  uint64_t served = 0;
  for (auto it = log_.lower_bound(from_seq);
       it != log_.end() && served < kMaxBatch; ++it, ++served) {
    Writer w;
    w.U8(kOrdered);
    w.U64(epoch_);
    w.U64(it->first);
    w.U32(it->second.origin);
    w.U64(it->second.local_id);
    w.Blob(it->second.payload);
    send_(from, w.Take());
  }
}

void TotalOrderBroadcast::HandleHeartbeat(NodeId from, Reader& r) {
  uint64_t epoch = r.U64();
  uint64_t next_seq = r.U64();
  if (!r.ok()) {
    return;
  }
  if (epoch < epoch_) {
    return;  // stale sequencer; ignore
  }
  AdoptEpoch(epoch);
  last_heard_ = env_->Now();
  // If the sequencer has ordered messages we have not seen, fetch them;
  // otherwise re-ask for a hole below what we hold, which no further
  // arrival may ever trigger.
  if (next_seq > 0 && next_seq - 1 > MaxKnownSeq()) {
    Writer w;
    w.U8(kNack);
    w.U64(epoch_);
    w.U64(delivered_seq_ + 1);
    send_(from, w.Take());
  } else {
    MaybeNackGap();
  }
}

void TotalOrderBroadcast::HandleNewEpoch(NodeId from, Reader& r) {
  uint64_t epoch = r.U64();
  if (!r.ok()) {
    return;
  }
  if (epoch <= epoch_ && from != sequencer()) {
    return;
  }
  AdoptEpoch(epoch);
  // Tell the new sequencer how much of the sequence we know so it can
  // resume numbering above everything already ordered.
  Writer w;
  w.U8(kSyncInfo);
  w.U64(epoch_);
  w.U64(MaxKnownSeq());
  send_(from, w.Take());
}

void TotalOrderBroadcast::HandleSyncInfo(Reader& r) {
  uint64_t epoch = r.U64();
  uint64_t max_seq = r.U64();
  if (!r.ok() || epoch != epoch_ || !IsSequencer()) {
    return;
  }
  ++sync_responses_;
  sync_max_seq_ = std::max(sync_max_seq_, max_seq);
  // Fetch anything they know that we lack; kNack doubles as a fetch.
  if (max_seq > MaxKnownSeq()) {
    // We cannot address the sender here (no from in scope); members also
    // push via NACK service. Conservatively re-request from everyone.
    Writer w;
    w.U8(kNack);
    w.U64(epoch_);
    w.U64(delivered_seq_ + 1);
    SendToAll(w.Take(), /*include_self=*/false);
  }
}

uint64_t TotalOrderBroadcast::MaxKnownSeq() const {
  uint64_t max_seq = delivered_seq_;
  if (!log_.empty()) {
    max_seq = std::max(max_seq, log_.rbegin()->first);
  }
  return max_seq;
}

void TotalOrderBroadcast::HeartbeatTick() {
  env_->ScheduleAfter(config_.heartbeat_period, [this] { HeartbeatTick(); });
  if (!Active() || !IsSequencer() || syncing_) {
    return;
  }
  Writer w;
  w.U8(kHeartbeat);
  w.U64(epoch_);
  w.U64(next_seq_);
  SendToAll(w.Take(), /*include_self=*/false);
  MaybeNackGap();
}

void TotalOrderBroadcast::RetransmitTick() {
  env_->ScheduleAfter(config_.retransmit_timeout, [this] { RetransmitTick(); });
  if (!Active()) {
    return;
  }
  // OrderAndSend() can erase from pending_ (self-delivery), so iterate a
  // snapshot.
  std::vector<std::pair<uint64_t, Bytes>> snapshot(pending_.begin(),
                                                   pending_.end());
  for (const auto& [local_id, payload] : snapshot) {
    Writer w;
    w.U8(kSubmit);
    w.U64(epoch_);
    w.U32(owner_->id());
    w.U64(local_id);
    w.Blob(payload);
    if (IsSequencer()) {
      if (!syncing_) {
        OrderAndSend(owner_->id(), local_id, payload);
      }
    } else {
      send_(sequencer(), w.Take());
    }
  }
}

void TotalOrderBroadcast::FailureCheckTick() {
  env_->ScheduleAfter(config_.heartbeat_period, [this] { FailureCheckTick(); });
  if (!Active() || IsSequencer()) {
    return;
  }
  if (env_->Now() - last_heard_ <= config_.failure_timeout) {
    return;
  }
  // Sequencer presumed crashed: advance the epoch. The role rotates to
  // group[epoch % n]; if that is us, announce and sync.
  epoch_ += 1;
  last_heard_ = env_->Now();
  SDR_LOG(kInfo) << "broadcast: node " << owner_->id() << " moves to epoch "
                 << epoch_ << ", sequencer now " << sequencer();
  if (IsSequencer()) {
    syncing_ = true;
    sync_max_seq_ = MaxKnownSeq();
    sync_responses_ = 0;
    AnnounceEpoch();
  }
}

void TotalOrderBroadcast::AnnounceEpoch() {
  if (!Active() || !IsSequencer() || !syncing_) {
    return;
  }
  Writer w;
  w.U8(kNewEpoch);
  w.U64(epoch_);
  SendToAll(w.Take(), /*include_self=*/false);
  env_->ScheduleAfter(config_.sync_window, [this, epoch = epoch_] {
    if (epoch != epoch_ || !IsSequencer() || !syncing_) {
      return;
    }
    // Majority rule: we finish only once self + responders exceed half the
    // group; otherwise keep announcing (we may be in a minority partition,
    // in which case we must never assume the sequencer role).
    if ((sync_responses_ + 1) * 2 > config_.group.size()) {
      FinishTakeover();
    } else {
      AnnounceEpoch();
    }
  });
}

void TotalOrderBroadcast::FinishTakeover() {
  syncing_ = false;
  next_seq_ = std::max(next_seq_, sync_max_seq_ + 1);
  // Rebuild the dedup map from the log so resubmitted messages that were
  // already ordered by the previous sequencer keep their sequence numbers.
  for (const auto& [seq, msg] : log_) {
    assigned_[{msg.origin, msg.local_id}] = seq;
  }
  SDR_LOG(kInfo) << "broadcast: node " << owner_->id()
                 << " took over as sequencer, next_seq=" << next_seq_;
}

}  // namespace sdr
