#include "src/baseline/smr_quorum.h"

namespace sdr {

namespace {
enum QrMsg : uint8_t {
  kQrRead = 1,
  kQrReadReply = 2,
};
}  // namespace

QrReplica::QrReplica(Options options) : options_(std::move(options)) {}

void QrReplica::Start() {
  queue_ = std::make_unique<ServiceQueue>(env(), options_.cost.slave_speed);
}

void QrReplica::SetContent(const DocumentStore& content) {
  store_ = content;
}

void QrReplica::HandleMessage(NodeId from, const Payload& payload) {
  Reader r(payload);
  if (r.U8() != kQrRead) {
    return;
  }
  uint64_t request_id = r.U64();
  Query query = Query::DecodeFrom(r);
  if (!r.Done()) {
    return;
  }
  auto outcome = executor_.Execute(store_, query);
  if (!outcome.ok()) {
    return;
  }
  ++reads_executed_;
  work_units_ += outcome->cost;

  QueryResult result = std::move(outcome->result);
  if (options_.colluding) {
    // Deterministic corruption: every colluder produces the same wrong
    // answer, so their votes stack.
    if (result.type == QueryResult::Type::kScalar) {
      result.scalar += 1000000;
    } else {
      result.rows.emplace_back("zzz/colluded", "forged");
    }
  }

  SimTime service_time =
      options_.cost.ExecuteTime(outcome->cost, result.Encode().size());
  queue_->Enqueue(service_time, [this, from, request_id,
                                 result = std::move(result)] {
    Writer w;
    w.U8(kQrReadReply);
    w.U64(request_id);
    w.Blob(result.Encode());
    env()->Send(from, w.Take());
  });
}

QrClient::QrClient(Options options) : options_(std::move(options)) {}

void QrClient::IssueRead(const Query& query, Callback cb) {
  uint64_t request_id = next_request_id_++;
  PendingRead read;
  read.query = query;
  read.issued = env()->Now();
  read.quorum_size =
      std::min<int>(2 * options_.f + 1, static_cast<int>(options_.replicas.size()));
  read.cb = std::move(cb);
  pending_.emplace(request_id, std::move(read));

  Writer w;
  w.U8(kQrRead);
  w.U64(request_id);
  query.EncodeTo(w);
  Bytes wire = w.Take();
  for (int i = 0; i < pending_[request_id].quorum_size; ++i) {
    env()->Send(options_.replicas[i], wire);
  }
}

void QrClient::HandleMessage(NodeId /*from*/, const Payload& payload) {
  Reader r(payload);
  if (r.U8() != kQrReadReply) {
    return;
  }
  uint64_t request_id = r.U64();
  Bytes result_enc = r.Blob();
  if (!r.Done()) {
    return;
  }
  auto it = pending_.find(request_id);
  if (it == pending_.end() || it->second.done) {
    return;
  }
  PendingRead& read = it->second;
  ++read.replies;

  auto result = QueryResult::Decode(result_enc);
  if (result.ok()) {
    Bytes digest = result->Sha1Digest();
    auto& slot = read.votes[digest];
    slot.first += 1;
    slot.second = *result;
    if (slot.first >= options_.f + 1) {
      // Quorum reached: f+1 identical answers cannot all come from the at
      // most f faulty replicas... unless more than f collude.
      read.done = true;
      ++reads_accepted_;
      latency_us_.Record(env()->Now() - read.issued);
      if (on_accept) {
        on_accept(read.query, slot.second);
      }
      Callback cb = std::move(read.cb);
      QueryResult accepted = slot.second;
      pending_.erase(it);
      if (cb) {
        cb(true, accepted);
      }
      return;
    }
  }
  if (read.replies >= read.quorum_size) {
    // All replies in, no f+1 agreement: unresolved (a real system would
    // widen the quorum; we count and fail the read).
    ++reads_unresolved_;
    Callback cb = std::move(read.cb);
    pending_.erase(it);
    if (cb) {
      cb(false, QueryResult{});
    }
  }
}

}  // namespace sdr
