// Reliable, totally-ordered broadcast among the master servers.
//
// The paper requires masters to be "fully connected to each other through
// secure communication links, and implement a reliable, total-ordering
// broadcast protocol that can tolerate benign (non-malicious) server
// failures", citing Kaashoek et al.'s sequencer-based protocol. This is a
// sequencer protocol in that spirit:
//
//   - one member (the sequencer for the current epoch) assigns a global
//     sequence number to every submitted message and re-broadcasts it;
//   - members deliver strictly in sequence order, holding back
//     out-of-order arrivals and NACKing gaps for retransmission, at most
//     once per gap per retransmit window (per-arrival re-nacks make the
//     sequencer re-serve a window per message, a storm quadratic in the
//     broadcast rate); sequencer heartbeats re-nack a gap that persists;
//   - origins retransmit unacknowledged submissions (dedup at the
//     sequencer by (origin, local_id));
//   - the sequencer heartbeats; silence beyond failure_timeout makes
//     members advance the epoch, rotating the sequencer role to
//     group[epoch % n], with a short state-sync round so no ordered
//     message is lost (benign crashes only — Byzantine masters are outside
//     the paper's trust model, masters are trusted).
//
// The class is transport-agnostic: the owner supplies a send callback and
// feeds incoming wire payloads to OnMessage(). All timing runs on the
// owning node's Env (virtual time in simulation, wall clock on a live
// node).
#ifndef SDR_SRC_BROADCAST_TOTAL_ORDER_H_
#define SDR_SRC_BROADCAST_TOTAL_ORDER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/runtime/env.h"
#include "src/util/bytes.h"
#include "src/util/serde.h"

namespace sdr {

class TotalOrderBroadcast {
 public:
  struct Config {
    std::vector<NodeId> group;  // static membership, all masters
    SimTime heartbeat_period = 200 * kMillisecond;
    SimTime failure_timeout = 1 * kSecond;
    SimTime retransmit_timeout = 300 * kMillisecond;
    SimTime sync_window = 400 * kMillisecond;  // takeover state-sync wait
  };

  using SendFn = std::function<void(NodeId to, const Bytes& payload)>;
  // Called exactly once per message, in sequence order, on every live
  // member (including the origin and the sequencer).
  using DeliverFn =
      std::function<void(uint64_t seq, NodeId origin, const Bytes& payload)>;

  TotalOrderBroadcast(Env* env, Node* owner, Config config, SendFn send,
                      DeliverFn deliver);

  // Arms timers. Call once after the network is wired.
  void Start();

  // Submits a message for total ordering; returns the local id used for
  // retransmission tracking.
  uint64_t Broadcast(Bytes payload);

  // Feeds a received broadcast-protocol payload.
  void OnMessage(NodeId from, BytesView payload);

  uint64_t epoch() const { return epoch_; }
  NodeId sequencer() const;
  bool IsSequencer() const;
  // sdrlint:allow(R9 tests observe the delivery cursor)
  uint64_t delivered_seq() const { return delivered_seq_; }
  // sdrlint:allow(R9 tests check that submissions drain)
  size_t pending_submissions() const { return pending_.size(); }

  // The wire messages. Each payload is its MsgType byte, then the
  // message's field list (WireEncodeTagged); a body that does not decode
  // whole is dropped.
  enum MsgType : uint8_t {
    kSubmit = 1,
    kOrdered = 2,
    kNack = 3,
    kHeartbeat = 4,
    kNewEpoch = 5,
    kSyncInfo = 6,
  };

  // Origin -> sequencer: order this payload (retransmitted until ordered).
  struct Submit {
    uint64_t epoch = 0;
    NodeId origin = kInvalidNode;
    uint64_t local_id = 0;  // the origin's dedup id
    Bytes payload;
    SDR_WIRE_FIELDS(Submit, epoch, origin, local_id, payload)
  };

  // Sequencer -> members: the payload's sequence number. Also the reply
  // to a nack, from any member's log.
  struct Ordered {
    uint64_t epoch = 0;
    uint64_t seq = 0;
    NodeId origin = kInvalidNode;
    uint64_t local_id = 0;
    Bytes payload;
    SDR_WIRE_FIELDS(Ordered, epoch, seq, origin, local_id, payload)
  };

  // Asks for the ordered messages from `from_seq` on.
  struct Nack {
    uint64_t epoch = 0;
    uint64_t from_seq = 0;
    SDR_WIRE_FIELDS(Nack, epoch, from_seq)
  };

  // Sequencer -> members: alive, and the next number it will assign.
  struct Heartbeat {
    uint64_t epoch = 0;
    uint64_t next_seq = 0;
    SDR_WIRE_FIELDS(Heartbeat, epoch, next_seq)
  };

  // A member taking over as the epoch's sequencer.
  struct NewEpoch {
    uint64_t epoch = 0;
    SDR_WIRE_FIELDS(NewEpoch, epoch)
  };

  // The reply to NewEpoch: the highest sequence number the member knows.
  struct SyncInfo {
    uint64_t epoch = 0;
    uint64_t max_seq = 0;
    SDR_WIRE_FIELDS(SyncInfo, epoch, max_seq)
  };

 private:
  void SendToAll(const Bytes& payload, bool include_self);
  void SendSubmit(uint64_t local_id, const Bytes& payload);
  void AdoptEpoch(uint64_t epoch);
  void HandleSubmit(const Submit& msg);
  void HandleOrdered(const Ordered& msg);
  void HandleNack(NodeId from, const Nack& msg);
  void HandleHeartbeat(NodeId from, const Heartbeat& msg);
  void HandleNewEpoch(NodeId from, const NewEpoch& msg);
  void HandleSyncInfo(const SyncInfo& msg);
  void OrderAndSend(NodeId origin, uint64_t local_id, const Bytes& payload);
  void StoreOrdered(const Ordered& msg);
  void DeliverReady();
  void MaybeNackGap();
  void HeartbeatTick();
  void RetransmitTick();
  void FailureCheckTick();
  void AnnounceEpoch();
  void FinishTakeover();
  uint64_t MaxKnownSeq() const;
  bool Active() const { return started_ && owner_->up(); }

  Env* env_;
  Node* owner_;
  Config config_;
  SendFn send_;
  DeliverFn deliver_;

  bool started_ = false;
  uint64_t epoch_ = 0;
  uint64_t next_seq_ = 1;        // sequencer only
  uint64_t delivered_seq_ = 0;   // highest delivered
  SimTime last_heard_ = 0;       // last sign of life from the sequencer

  // Sequencer dedup: (origin, local_id) -> assigned seq.
  std::map<std::pair<NodeId, uint64_t>, uint64_t> assigned_;
  // All ordered messages seen, by seq (also serves retransmissions).
  std::map<uint64_t, Ordered> log_;
  // Our unacknowledged submissions.
  uint64_t next_local_id_ = 1;
  std::map<uint64_t, Bytes> pending_;

  // Gap-nack suppression (see MaybeNackGap): the last sequence number we
  // nacked and when, so a reordered burst asks for a gap once per
  // retransmit window instead of once per arrival.
  uint64_t last_nack_seq_ = 0;
  SimTime last_nack_time_ = 0;

  // Takeover state (valid while we are the epoch's sequencer and syncing).
  // A takeover completes only after a majority of the group answered the
  // kNewEpoch announcement: a member isolated in a minority partition can
  // therefore never finish self-electing, which keeps a healed partition
  // from resurrecting with conflicting sequence numbers.
  bool syncing_ = false;
  uint64_t sync_max_seq_ = 0;
  size_t sync_responses_ = 0;
};

}  // namespace sdr

#endif  // SDR_SRC_BROADCAST_TOTAL_ORDER_H_
