#include "src/broadcast/total_order.h"

#include <algorithm>
#include <cassert>

#include "src/util/logging.h"

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
    SendSubmit(local_id, payload);
  }
  return local_id;
}

void TotalOrderBroadcast::SendSubmit(uint64_t local_id, const Bytes& payload) {
  send_(sequencer(), WireEncodeTagged(kSubmit, Submit{epoch_, owner_->id(),
                                                      local_id, payload}));
}

void TotalOrderBroadcast::OnMessage(NodeId from, BytesView payload) {
  if (!Active() || payload.empty()) {
    return;
  }
  const BytesView body = payload.substr(1);
  switch (payload[0]) {
    case kSubmit:
      if (auto msg = Submit::Decode(body); msg.ok()) {
        HandleSubmit(*msg);
      }
      break;
    case kOrdered:
      if (auto msg = Ordered::Decode(body); msg.ok()) {
        HandleOrdered(*msg);
      }
      break;
    case kNack:
      if (auto msg = Nack::Decode(body); msg.ok()) {
        HandleNack(from, *msg);
      }
      break;
    case kHeartbeat:
      if (auto msg = Heartbeat::Decode(body); msg.ok()) {
        HandleHeartbeat(from, *msg);
      }
      break;
    case kNewEpoch:
      if (auto msg = NewEpoch::Decode(body); msg.ok()) {
        HandleNewEpoch(from, *msg);
      }
      break;
    case kSyncInfo:
      if (auto msg = SyncInfo::Decode(body); msg.ok()) {
        HandleSyncInfo(*msg);
      }
      break;
    default:
      SDR_LOG(kWarn) << "broadcast: unknown message type " << int(payload[0]);
  }
}

void TotalOrderBroadcast::AdoptEpoch(uint64_t epoch) {
  if (epoch > epoch_) {
    epoch_ = epoch;
    syncing_ = false;
    last_heard_ = env_->Now();
  }
}

void TotalOrderBroadcast::HandleSubmit(const Submit& msg) {
  AdoptEpoch(msg.epoch);
  if (!IsSequencer()) {
    // Misrouted (stale sequencer view at the origin); the origin's
    // retransmit timer will redirect to the current sequencer.
    return;
  }
  if (syncing_) {
    // Defer ordering until takeover sync completes; the origin retransmits.
    return;
  }
  OrderAndSend(msg.origin, msg.local_id, msg.payload);
}

void TotalOrderBroadcast::OrderAndSend(NodeId origin, uint64_t local_id,
                                       const Bytes& payload) {
  Ordered msg{epoch_, 0, origin, local_id, payload};
  auto key = std::make_pair(origin, local_id);
  auto it = assigned_.find(key);
  if (it != assigned_.end()) {
    msg.seq = it->second;  // duplicate submit: re-announce the same ordering
  } else {
    msg.seq = next_seq_++;
    assigned_[key] = msg.seq;
    StoreOrdered(msg);
    DeliverReady();
  }
  SendToAll(WireEncodeTagged(kOrdered, msg), /*include_self=*/false);
}

void TotalOrderBroadcast::HandleOrdered(const Ordered& msg) {
  AdoptEpoch(msg.epoch);
  last_heard_ = env_->Now();
  StoreOrdered(msg);
  DeliverReady();
  MaybeNackGap();
}

void TotalOrderBroadcast::StoreOrdered(const Ordered& msg) {
  if (msg.seq <= delivered_seq_ || log_.count(msg.seq) > 0) {
    return;  // duplicate
  }
  if (msg.origin == owner_->id()) {
    pending_.erase(msg.local_id);
  }
  log_.emplace(msg.seq, msg);
}

void TotalOrderBroadcast::DeliverReady() {
  auto it = log_.find(delivered_seq_ + 1);
  while (it != log_.end()) {
    const Ordered& msg = it->second;
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
    Bytes nack = WireEncodeTagged(kNack, Nack{epoch_, want});
    if (IsSequencer()) {
      SendToAll(nack, /*include_self=*/false);
    } else {
      send_(sequencer(), nack);
    }
  }
}

void TotalOrderBroadcast::HandleNack(NodeId from, const Nack& msg) {
  AdoptEpoch(msg.epoch);
  // Serve from our log regardless of role: during takeover the new
  // sequencer may be the one asking.
  constexpr uint64_t kMaxBatch = 64;
  uint64_t served = 0;
  for (auto it = log_.lower_bound(msg.from_seq);
       it != log_.end() && served < kMaxBatch; ++it, ++served) {
    Ordered resend = it->second;
    resend.epoch = epoch_;
    send_(from, WireEncodeTagged(kOrdered, resend));
  }
}

void TotalOrderBroadcast::HandleHeartbeat(NodeId from, const Heartbeat& msg) {
  if (msg.epoch < epoch_) {
    return;  // stale sequencer; ignore
  }
  AdoptEpoch(msg.epoch);
  last_heard_ = env_->Now();
  // If the sequencer has ordered messages we have not seen, fetch them;
  // otherwise re-ask for a hole below what we hold, which no further
  // arrival may ever trigger.
  if (msg.next_seq > 0 && msg.next_seq - 1 > MaxKnownSeq()) {
    send_(from, WireEncodeTagged(kNack, Nack{epoch_, delivered_seq_ + 1}));
  } else {
    MaybeNackGap();
  }
}

void TotalOrderBroadcast::HandleNewEpoch(NodeId from, const NewEpoch& msg) {
  if (msg.epoch <= epoch_ && from != sequencer()) {
    return;
  }
  AdoptEpoch(msg.epoch);
  // Tell the new sequencer how much of the sequence we know so it can
  // resume numbering above everything already ordered.
  send_(from, WireEncodeTagged(kSyncInfo, SyncInfo{epoch_, MaxKnownSeq()}));
}

void TotalOrderBroadcast::HandleSyncInfo(const SyncInfo& msg) {
  if (msg.epoch != epoch_ || !IsSequencer()) {
    return;
  }
  ++sync_responses_;
  sync_max_seq_ = std::max(sync_max_seq_, msg.max_seq);
  // Fetch anything they know that we lack; kNack doubles as a fetch.
  if (msg.max_seq > MaxKnownSeq()) {
    // We cannot address the sender here (no from in scope); members also
    // push via NACK service. Conservatively re-request from everyone.
    SendToAll(WireEncodeTagged(kNack, Nack{epoch_, delivered_seq_ + 1}),
              /*include_self=*/false);
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
  SendToAll(WireEncodeTagged(kHeartbeat, Heartbeat{epoch_, next_seq_}),
            /*include_self=*/false);
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
    if (!IsSequencer()) {
      SendSubmit(local_id, payload);
    } else if (!syncing_) {
      OrderAndSend(owner_->id(), local_id, payload);
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
  SendToAll(WireEncodeTagged(kNewEpoch, NewEpoch{epoch_}),
            /*include_self=*/false);
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
