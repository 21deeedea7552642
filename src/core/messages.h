// Wire messages of the replication protocol. Every network payload is one
// byte of MsgType followed by the message body. Encoding helpers keep the
// node implementations readable; decoding returns Result so corrupt or
// truncated payloads are rejected rather than trusted.
#ifndef SDR_SRC_CORE_MESSAGES_H_
#define SDR_SRC_CORE_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/certificate.h"
#include "src/core/pledge.h"
#include "src/core/shard.h"
#include "src/forkcheck/fork.h"
#include "src/store/document_store.h"
#include "src/store/executor.h"
#include "src/store/query.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace sdr {

// sdrlint:protocol-enum — switches over MsgType must be exhaustive and
// default-free, so adding a message type breaks the lint, not the protocol.
enum class MsgType : uint8_t {
  // Directory.
  kDirectoryLookup = 1,
  kDirectoryLookupReply = 2,
  // Client setup with a master.
  kClientHello = 3,
  kClientHelloReply = 4,
  // Reads (client <-> slave).
  kReadRequest = 5,
  kReadReply = 6,
  // Writes (client <-> master).
  kWriteRequest = 7,
  kWriteReply = 8,
  // Probabilistic checking (client <-> master).
  kDoubleCheckRequest = 9,
  kDoubleCheckReply = 10,
  // Corrective action.
  kAccusation = 11,     // client or auditor -> master, carries the pledge
  kReassignment = 12,   // master -> client: new slave assignment
  // State propagation (master -> slave). 13 stays unassigned, so a frame
  // of the retired unsigned per-version update is never read as another
  // message.
  kKeepAlive = 14,
  kSlaveAck = 15,       // slave -> master: highest applied version
  // Auditing.
  kAuditSubmit = 16,    // client -> auditor
  // Master group internals.
  kBroadcastEnvelope = 17,  // wraps TotalOrderBroadcast wire payloads
  // Delayed discovery (Section 3.5): the auditor tells the client that a
  // read it already accepted was wrong, so the application can roll back.
  kBadReadNotice = 18,  // auditor -> client
  // Fork-consistency checking (src/forkcheck/, beyond the paper).
  kVvExchange = 19,    // client <-> client version-vector gossip
  kForkEvidence = 20,  // anyone -> master: transferable equivocation proof
  // Keyspace sharding (src/core/shard.h, beyond the paper).
  kPlacementQuery = 21,  // client -> directory: which shards serve a content
  kPlacementReply = 22,  // directory -> client: signed ShardPlacement
  // State propagation (master -> slave): one certificate + one token cover
  // a contiguous run of versions. The only way content reaches a slave.
  kStateUpdateBatch = 23,
};

// Payloads carried *inside* the total-order broadcast. The auditor is a
// member of the master group (the paper's "only trusted server that does
// not have a slave set"), so it learns writes and slave assignments from
// the same ordered stream the masters use.
// sdrlint:protocol-enum
enum class TobPayloadType : uint8_t {
  // 1 stays unassigned (the retired lone-write payload).
  kGossip = 2,  // a master's current slave set (liveness + crash recovery)
  kWriteBundle = 3,  // 1..commit_batch client writes, committed as one unit
};

// Returns the MsgType of a payload, or kCorrupt error when empty.
Result<MsgType> PeekType(BytesView payload);

// Prepends the type byte.
Bytes WithType(MsgType type, const Bytes& body);

// ---- Message structs -------------------------------------------------------

struct DirectoryLookup {
  Bytes content_public_key;
  Bytes Encode() const;
  static Result<DirectoryLookup> Decode(BytesView body);
};

struct DirectoryLookupReply {
  std::vector<Certificate> master_certs;
  Bytes Encode() const;
  static Result<DirectoryLookupReply> Decode(BytesView body);
};

struct ClientHello {
  Bytes client_nonce;
  Bytes Encode() const;
  static Result<ClientHello> Decode(BytesView body);
};

// One member of a client's assigned read set: the slave's certificate and
// the auditor its pledges go to.
struct AssignedSlave {
  Certificate cert;
  NodeId auditor = kInvalidNode;

  bool operator==(const AssignedSlave&) const = default;
  void EncodeTo(Writer& w) const;
  static AssignedSlave DecodeFrom(Reader& r);
};

// The master's handshake reply: signed over (client_nonce || server_nonce ||
// assignment); the assignment is the read set, one member per slave the
// client sends each read to (ProtocolParams::read_fanout of them, fewer if
// fewer slaves are live), and its sequence number.
struct ClientHelloReply {
  Bytes server_nonce;
  // The master numbers every read set it signs, hello or reassignment, so
  // a client never adopts an older set over a newer one.
  uint64_t seq = 0;
  std::vector<AssignedSlave> slaves;
  Bytes signature;

  Bytes SignedBody(const Bytes& client_nonce) const;
  Bytes Encode() const;
  static Result<ClientHelloReply> Decode(BytesView body);
};

// The canonical encoding of an empty QueryResult. Replies that carry no
// answer (a declined read, an unserved double-check) carry this.
const Bytes& EmptyResultEncoding();

struct ReadRequest {
  uint64_t request_id = 0;
  // Causal trace id for the observability subsystem (src/trace/). Minted
  // by the issuing client, echoed through replies, double-checks, audit
  // submissions and verdicts so one read's pledge can be followed across
  // nodes. Always carried (0 = untraced), never part of any signed body.
  uint64_t trace_id = 0;
  Query query;
  Bytes Encode() const;
  static Result<ReadRequest> Decode(BytesView body);
};

struct ReadReply {
  uint64_t request_id = 0;
  uint64_t trace_id = 0;    // echoed from the request
  bool ok = false;          // false: slave declined (e.g. stale, excluded)
  // The result's canonical QueryResult encoding, exactly the bytes the
  // pledge hashes. Readers hash these bytes as received and parse rows
  // only once a read is accepted.
  Bytes result = EmptyResultEncoding();
  Pledge pledge;
  // Fork-consistency commitment for the pledged version; attached only
  // when fork checking is enabled (optional trailing field, so disabled
  // encodings are byte-identical to the fork-unaware wire format).
  std::optional<VersionVector> vv;
  Bytes Encode() const;
  static Result<ReadReply> Decode(BytesView body);
};

struct WriteRequest {
  uint64_t request_id = 0;
  WriteBatch batch;
  Bytes Encode() const;
  static Result<WriteRequest> Decode(BytesView body);
};

struct WriteReply {
  uint64_t request_id = 0;
  bool ok = false;
  uint64_t committed_version = 0;
  uint8_t error_code = 0;  // ErrorCode when !ok
  Bytes Encode() const;
  static Result<WriteReply> Decode(BytesView body);
};

struct DoubleCheckRequest {
  uint64_t request_id = 0;
  uint64_t trace_id = 0;
  Pledge pledge;
  Bytes Encode() const;
  static Result<DoubleCheckRequest> Decode(BytesView body);
};

struct DoubleCheckReply {
  uint64_t request_id = 0;
  uint64_t trace_id = 0;
  bool served = false;   // false: quota exceeded / version unavailable
  bool matches = false;  // master's hash == pledge hash
  // The master's canonical result encoding (when served).
  Bytes correct_result = EmptyResultEncoding();
  Bytes Encode() const;
  static Result<DoubleCheckReply> Decode(BytesView body);
};

struct Accusation {
  uint64_t trace_id = 0;
  Pledge pledge;
  Bytes Encode() const;
  static Result<Accusation> Decode(BytesView body);
};

// The client's whole new read set after a slave left it. An empty set
// means the master has no live slave left for the client, which then sets
// up again.
struct Reassignment {
  uint64_t seq = 0;  // as in ClientHelloReply
  std::vector<AssignedSlave> slaves;
  NodeId excluded_slave = kInvalidNode;  // kInvalidNode: master-initiated move
  uint64_t trace_id = 0;  // evidence chain that triggered the exclusion
  Bytes signature;        // master's, over the body (trace_id excluded)

  Bytes SignedBody() const;
  Bytes Encode() const;
  static Result<Reassignment> Decode(BytesView body);
};

struct KeepAlive {
  VersionToken token;
  Bytes Encode() const;
  static Result<KeepAlive> Decode(BytesView body);
};

struct SlaveAck {
  uint64_t applied_version = 0;
  Bytes Encode() const;
  static Result<SlaveAck> Decode(BytesView body);
};

struct AuditSubmit {
  uint64_t trace_id = 0;
  Pledge pledge;
  // The slave's fork-consistency commitment as received on the read reply,
  // so the auditor can reconcile chain heads across client sets that never
  // gossip with each other. Optional trailing field like ReadReply::vv.
  std::optional<VersionVector> vv;
  Bytes Encode() const;
  static Result<AuditSubmit> Decode(BytesView body);
};

// "In some applications, the harm may be undone, by rolling back the
// client to the state before that particular read" (Section 3.5). The
// auditor sends the incriminating pledge back to the client that accepted
// the bad read, together with the correct result hash.
struct BadReadNotice {
  uint64_t trace_id = 0;
  Pledge pledge;
  Bytes correct_sha1;
  Bytes Encode() const;
  static Result<BadReadNotice> Decode(BytesView body);
};

// Client <-> client fork-consistency gossip: the sender's latest attested
// version vector per slave it has heard from.
struct VvExchange {
  NodeId origin = kInvalidNode;
  std::vector<AttestedVv> entries;
  Bytes Encode() const;
  static Result<VvExchange> Decode(BytesView body);
};

// A transferable equivocation proof en route to a master (which verifies
// it offline and excludes the forked slave).
struct ForkEvidence {
  uint64_t trace_id = 0;
  EvidenceChain chain;
  Bytes Encode() const;
  static Result<ForkEvidence> Decode(BytesView body);
};

// Asks the directory for the shard placement of a content. Sent once per
// setup; clients cache the verified reply (the client-side placement
// cache) until a master suspicion forces a re-setup.
struct PlacementQuery {
  Bytes content_public_key;
  Bytes Encode() const;
  static Result<PlacementQuery> Decode(BytesView body);
};

struct PlacementReply {
  bool found = false;  // false: content is unsharded (or unknown)
  ShardPlacement placement;
  Bytes Encode() const;
  static Result<PlacementReply> Decode(BytesView body);
};

// State propagation: batches for versions
// [first_version, first_version + batches.size() - 1], one head token and
// one BatchCommit certificate over the run. A commit of 1..commit_batch
// writes and an ack-driven catch-up both travel as one of these; a slave
// applies no batch the certificate does not cover.
struct StateUpdateBatch {
  uint64_t first_version = 0;
  std::vector<WriteBatch> batches;
  VersionToken token;  // covers the master's head when it was sent
  BatchCommit commit;
  // SHA-1 over the batches' canonical encodings in version order: what
  // commit.batches_sha1 must equal.
  Bytes BatchesSha1() const;
  Bytes Encode() const;
  static Result<StateUpdateBatch> Decode(BytesView body);
};

// ---- Total-order broadcast inner payloads ----------------------------------

Result<TobPayloadType> PeekTobType(BytesView payload);
Bytes WithTobType(TobPayloadType type, const Bytes& body);

struct TobWrite {
  NodeId origin_master = kInvalidNode;  // the master that accepted the write
  NodeId client = kInvalidNode;         // for the reply
  uint64_t request_id = 0;
  WriteBatch batch;
  Bytes Encode() const;
  static Result<TobWrite> Decode(BytesView body);
};

// Every write is broadcast in a bundle: the origin master accumulates
// client writes until commit_batch of them or commit_window elapses and
// broadcasts them as one ordered unit, amortizing broadcast and signature
// cost over the bundle. Commit order within the bundle is its vector
// order; a bundle of one is a normal bundle.
struct TobWriteBundle {
  std::vector<TobWrite> writes;
  Bytes Encode() const;
  static Result<TobWriteBundle> Decode(BytesView body);
};

struct TobGossip {
  NodeId master = kInvalidNode;
  std::vector<Certificate> slave_certs;
  // Slaves the gossiper knows to be excluded, by itself or by a peer, so
  // that no survivor adopts one after the excluding master crashes.
  std::vector<NodeId> excluded_slaves;
  Bytes Encode() const;
  static Result<TobGossip> Decode(BytesView body);
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_MESSAGES_H_
