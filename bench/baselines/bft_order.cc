#include "bench/baselines/bft_order.h"

#include <cassert>

namespace sdr {

BftOrderBroadcast::BftOrderBroadcast(Env* env, Node* owner, Config config,
                                     SendFn send, DeliverFn deliver)
    : env_(env),
      owner_(owner),
      config_(std::move(config)),
      send_(std::move(send)),
      deliver_(std::move(deliver)) {
  assert(!config_.group.empty());
}

void BftOrderBroadcast::Start() {
  started_ = true;
  RetransmitTick();
}

void BftOrderBroadcast::SendTo(NodeId to, const Bytes& payload) {
  ++messages_sent_;
  ++auth_ops_;  // every PBFT message carries an authenticator
  send_(to, payload);
}

void BftOrderBroadcast::SendToAll(const Bytes& payload) {
  for (NodeId member : config_.group) {
    if (member != owner_->id()) {
      SendTo(member, payload);
    }
  }
}

void BftOrderBroadcast::Broadcast(Bytes payload) {
  uint64_t local_id = next_local_id_++;
  pending_[local_id] = payload;
  SubmitRequest(local_id, payload);
}

void BftOrderBroadcast::SubmitRequest(uint64_t local_id, const Bytes& payload) {
  Request msg{owner_->id(), local_id, payload};
  if (IsPrimary()) {
    HandleRequest(msg);
  } else {
    SendTo(primary(), WireEncodeTagged(kRequest, msg));
  }
}

void BftOrderBroadcast::OnMessage(NodeId from, BytesView payload) {
  if (!started_ || !owner_->up()) {
    return;
  }
  ++auth_ops_;  // verify the sender's authenticator
  if (payload.empty()) {
    return;
  }
  const BytesView body = payload.substr(1);
  switch (payload[0]) {
    case kRequest:
      if (auto msg = Request::Decode(body); msg.ok()) {
        HandleRequest(*msg);
      }
      break;
    case kPrePrepare:
      if (auto msg = PrePrepare::Decode(body); msg.ok()) {
        HandlePrePrepare(*msg);
      }
      break;
    case kPrepare:
      if (auto msg = Vote::Decode(body); msg.ok()) {
        HandlePrepare(from, msg->seq);
      }
      break;
    case kCommit:
      if (auto msg = Vote::Decode(body); msg.ok()) {
        HandleCommit(from, msg->seq);
      }
      break;
    default:
      break;
  }
}

void BftOrderBroadcast::HandleRequest(const Request& msg) {
  if (!IsPrimary()) {
    return;
  }
  auto key = std::make_pair(msg.origin, msg.local_id);
  uint64_t seq;
  auto it = assigned_.find(key);
  if (it != assigned_.end()) {
    seq = it->second;  // duplicate: re-announce the same pre-prepare
  } else {
    seq = next_seq_++;
    assigned_[key] = seq;
    Instance& inst = instances_[seq];
    inst.origin = msg.origin;
    inst.payload = msg.payload;
    inst.have_preprepare = true;
  }
  if (msg.origin == owner_->id()) {
    pending_.erase(msg.local_id);  // the primary's own request is now ordered
  }
  SendToAll(WireEncodeTagged(
      kPrePrepare, PrePrepare{seq, msg.origin, msg.local_id, msg.payload}));
  MaybeProgress(seq);
}

void BftOrderBroadcast::HandlePrePrepare(const PrePrepare& msg) {
  if (msg.origin == owner_->id()) {
    pending_.erase(msg.local_id);
  }
  Instance& inst = instances_[msg.seq];
  if (!inst.have_preprepare) {
    inst.origin = msg.origin;
    inst.payload = msg.payload;
    inst.have_preprepare = true;
  }
  MaybeProgress(msg.seq);
}

void BftOrderBroadcast::HandlePrepare(NodeId from, uint64_t seq) {
  Instance& inst = instances_[seq];
  inst.prepares.insert(from);
  if (inst.delivered) {
    HelpLaggard(from, seq);
    return;
  }
  MaybeProgress(seq);
}

void BftOrderBroadcast::HandleCommit(NodeId from, uint64_t seq) {
  Instance& inst = instances_[seq];
  inst.commits.insert(from);
  // Commits never trigger help replies — that would let two delivered
  // members ping-pong forever.
  if (inst.delivered) {
    return;
  }
  MaybeProgress(seq);
}

void BftOrderBroadcast::HelpLaggard(NodeId peer, uint64_t seq) {
  // A peer is still (re)transmitting a PREPARE for an instance we already
  // delivered: it lost phase messages and everyone else moved on. Send our
  // COMMIT directly (and the pre-prepare if we are the primary). Only
  // prepares trigger this, and the reply is a commit, which never triggers
  // a reply itself — so helped exchanges always terminate.
  const Instance& inst = instances_[seq];
  if (IsPrimary() && inst.have_preprepare) {
    SendTo(peer, WireEncodeTagged(
                     kPrePrepare, PrePrepare{seq, inst.origin, 0, inst.payload}));
  }
  SendTo(peer, WireEncodeTagged(kCommit, Vote{seq}));
}

void BftOrderBroadcast::MaybeProgress(uint64_t seq) {
  Instance& inst = instances_[seq];
  if (!inst.have_preprepare) {
    return;
  }
  // Prepare phase: every replica (including the primary) multicasts
  // PREPARE once it holds the pre-prepare.
  if (!inst.sent_prepare) {
    inst.sent_prepare = true;
    inst.prepares.insert(owner_->id());
    SendToAll(WireEncodeTagged(kPrepare, Vote{seq}));
  }
  // Commit phase: prepared == pre-prepare + 2f matching prepares.
  if (!inst.sent_commit &&
      static_cast<int>(inst.prepares.size()) >= 2 * f() + 1) {
    inst.sent_commit = true;
    inst.commits.insert(owner_->id());
    SendToAll(WireEncodeTagged(kCommit, Vote{seq}));
  }
  // Committed: 2f+1 commits. Deliver in sequence order.
  if (!inst.delivered && static_cast<int>(inst.commits.size()) >= quorum()) {
    inst.delivered = true;
    DeliverReady();
  }
}

void BftOrderBroadcast::DeliverReady() {
  for (;;) {
    auto it = instances_.find(delivered_seq_ + 1);
    if (it == instances_.end() || !it->second.delivered) {
      return;
    }
    ++delivered_seq_;
    deliver_(delivered_seq_, it->second.origin, it->second.payload);
  }
}

void BftOrderBroadcast::RetransmitTick() {
  env_->ScheduleAfter(config_.retransmit_timeout, [this] { RetransmitTick(); });
  if (!started_ || !owner_->up()) {
    return;
  }
  // Recover lost phase messages: re-multicast our phase votes (and the
  // pre-prepare, if we are the primary) for every undelivered instance.
  for (auto& [seq, inst] : instances_) {
    if (inst.delivered) {
      continue;
    }
    if (IsPrimary() && inst.have_preprepare) {
      SendToAll(WireEncodeTagged(
          kPrePrepare, PrePrepare{seq, inst.origin, 0, inst.payload}));
    }
    if (inst.sent_prepare) {
      SendToAll(WireEncodeTagged(kPrepare, Vote{seq}));
    }
    if (inst.sent_commit) {
      SendToAll(WireEncodeTagged(kCommit, Vote{seq}));
    }
  }

  // HandleRequest can erase from pending_, so iterate a snapshot.
  std::vector<std::pair<uint64_t, Bytes>> snapshot(pending_.begin(),
                                                   pending_.end());
  for (const auto& [local_id, payload] : snapshot) {
    SubmitRequest(local_id, payload);
  }
}

}  // namespace sdr
