#include "src/core/slave.h"

#include "src/crypto/sha1.h"
#include "src/trace/trace.h"
#include "src/util/logging.h"

namespace sdr {

namespace {
std::string_view AsKey(const Bytes& key) {
  return {reinterpret_cast<const char*>(key.data()), key.size()};
}
}  // namespace

Slave::Slave(Options options)
    : options_(std::move(options)),
      signer_(options_.key_pair),
      rng_(options_.rng_seed) {}

void Slave::Start() {
  queue_ = std::make_unique<ServiceQueue>(env(), options_.cost.slave_speed);
  queue_->BindTrace(TraceRole::kSlave, id());
}

void Slave::SetBaseContent(const DocumentStore& base) {
  store_ = base;
  // Entries answered from the old content must go.
  memo_ = LruMap<ServedRead>(kMemoCapacity);
}

Bytes Slave::MemoKey(const Query& query) const {
  Writer w;
  w.U64(applied_version_);
  w.Blob(token_->signature);
  query.EncodeTo(w);
  return w.Take();
}

void Slave::HandleMessage(NodeId from, const Payload& payload) {
  auto type = PeekType(payload);
  if (!type.ok()) {
    return;
  }
  BytesView body = BytesView(payload).substr(1);
  switch (*type) {
    case MsgType::kStateUpdateBatch:
      HandleStateUpdateBatch(from, body);
      break;
    case MsgType::kKeepAlive:
      HandleKeepAlive(from, body);
      break;
    case MsgType::kReadRequest:
      HandleReadRequest(from, body);
      break;
    // Not addressed to a slave; ignored by design.
    case MsgType::kDirectoryLookup:
    case MsgType::kDirectoryLookupReply:
    case MsgType::kClientHello:
    case MsgType::kClientHelloReply:
    case MsgType::kReadReply:
    case MsgType::kWriteRequest:
    case MsgType::kWriteReply:
    case MsgType::kDoubleCheckRequest:
    case MsgType::kDoubleCheckReply:
    case MsgType::kAccusation:
    case MsgType::kReassignment:
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

void Slave::MaybeAdoptToken(const VersionToken& token) {
  // Verify the master's signature; reject tokens from unknown masters.
  auto key = options_.master_keys.find(token.master);
  if (key == options_.master_keys.end() ||
      !VerifyVersionToken(options_.params.scheme, key->second, token,
                          &verify_cache_)) {
    return;
  }
  // A token is only usable if we actually hold the state it attests to.
  if (token.content_version != applied_version_) {
    return;
  }
  if (!token_.has_value() || token.timestamp > token_->timestamp) {
    token_ = token;
  }
}

void Slave::ApplyBuffered() {
  auto it = buffered_updates_.find(applied_version_ + 1);
  while (it != buffered_updates_.end()) {
    if (options_.behavior.stale_pledge) {
      // Keep a one-version-lagged snapshot: stale_pledge serves content
      // from here while the pledge token claims the new version.
      lag_view_ = FrozenView{store_, applied_version_};
    }
    store_.ApplyBatch(it->second.batch);
    ++applied_version_;
    ++metrics_.state_updates_applied;
    MaybeAdoptToken(it->second.token);
    buffered_updates_.erase(it);
    it = buffered_updates_.find(applied_version_ + 1);
  }
}

void Slave::HandleStateUpdateBatch(NodeId from, BytesView body) {
  auto msg = StateUpdateBatch::Decode(body);
  if (!msg.ok()) {
    return;
  }
  if (options_.behavior.ignore_updates) {
    return;
  }
  // The one certificate must be genuine and must cover exactly these
  // batches before any of them touches the store: a mismatched digest
  // means someone spliced batches under a real signature.
  auto key = options_.master_keys.find(msg->commit.master);
  if (key == options_.master_keys.end() || msg->batches.empty() ||
      msg->commit.first_version != msg->first_version ||
      msg->commit.last_version !=
          msg->first_version + msg->batches.size() - 1 ||
      msg->BatchesSha1() != msg->commit.batches_sha1 ||
      !VerifyBatchCommit(options_.params.scheme, key->second, msg->commit,
                         &verify_cache_)) {
    return;
  }
  // Buffer every version not yet applied, so gaps wait for their run. The
  // head token rides on each but only becomes adoptable once the last
  // version of the run is applied (MaybeAdoptToken's content_version check).
  for (size_t i = 0; i < msg->batches.size(); ++i) {
    uint64_t version = msg->first_version + i;
    if (version > applied_version_) {
      buffered_updates_[version] =
          BufferedVersion{std::move(msg->batches[i]), msg->token};
    }
  }
  ApplyBuffered();
  MaybeAdoptToken(msg->token);
  AckTo(from);
}

void Slave::HandleKeepAlive(NodeId from, BytesView body) {
  auto msg = KeepAlive::Decode(body);
  if (!msg.ok()) {
    return;
  }
  ++metrics_.keepalives_received;
  MaybeAdoptToken(msg->token);
  AckTo(from);
}

void Slave::AckTo(NodeId master) {
  SlaveAck ack;
  ack.applied_version = applied_version_;
  env()->Send(master, EncodeTyped(MsgType::kSlaveAck, ack));
}

bool Slave::TokenFresh() const {
  return token_.has_value() &&
         TokenIsFresh(*token_, env()->Now(), options_.params.max_latency);
}

void Slave::HandleReadRequest(NodeId from, BytesView body) {
  auto msg = ReadRequest::Decode(body);
  if (!msg.ok()) {
    return;
  }
  if (options_.behavior.drop_probability > 0.0 &&
      rng_.NextBool(options_.behavior.drop_probability)) {
    return;
  }
  TraceSink* t = env()->trace();
  if (!token_.has_value() ||
      (!TokenFresh() && !options_.behavior.serve_despite_stale)) {
    // An honest slave that is out of sync "should stop handling user
    // requests until they are back in sync" (Section 3).
    ++metrics_.reads_declined_stale;
    if (t != nullptr) {
      t->Instant(TraceRole::kSlave, id(), "slave.decline", msg->trace_id);
    }
    ReadReply reply;
    reply.request_id = msg->request_id;
    reply.trace_id = msg->trace_id;
    reply.ok = false;
    env()->Send(from, EncodeTyped(MsgType::kReadReply, reply));
    return;
  }

  // Equivocation behaviors: pick which view of the content this client is
  // served from. A forked slave splits its clients by id parity — the odd
  // half reads a view frozen when the fork began, the even half the real
  // store — while both pledges claim the current version. Views are
  // dropped as soon as the behavior heals so a recovered slave serves
  // honestly again.
  const bool fork_active =
      options_.behavior.fork_views || options_.behavior.split_serve;
  const bool fork_target = fork_active && (from % 2 == 1);
  if (!fork_active && fork_view_.has_value()) {
    fork_view_.reset();
  }
  if (!options_.behavior.stale_pledge && lag_view_.has_value()) {
    lag_view_.reset();
  }
  const DocumentStore* exec_store = &store_;
  if (fork_target) {
    if (!fork_view_.has_value()) {
      fork_view_ = FrozenView{store_, applied_version_};
    }
    exec_store = &fork_view_->store;
    if (fork_view_->version < applied_version_) {
      // Only reads answered from a view the slave knows is behind count as
      // equivocation: until a write lands, the frozen view tells the truth.
      ++metrics_.equivocations_served;
    }
  } else if (fork_active) {
    // A fork only splits *observable* history when both client sets read
    // while the views diverge; a forked slave whose clients all fall in
    // one set presents a single consistent (if stale) story.
    if (fork_view_.has_value() && fork_view_->version < applied_version_) {
      ++metrics_.honest_serves_forked;
    }
  } else if (options_.behavior.stale_pledge && lag_view_.has_value()) {
    exec_store = &lag_view_->store;
    ++metrics_.stale_serves;
  }

  // Honest reads of the slave's own store go through the memo; a read
  // answered from a fork or lag view never touches it.
  const bool memoizable = exec_store == &store_;
  Bytes memo_key;
  ServedRead served;
  bool hit = false;
  if (memoizable) {
    memo_key = MemoKey(msg->query);
    if (const ServedRead* entry = memo_.Find(AsKey(memo_key))) {
      served = *entry;
      hit = true;
    }
  }
  if (!hit) {
    auto outcome = executor_.Execute(*exec_store, msg->query);
    if (!outcome.ok()) {
      ReadReply reply;
      reply.request_id = msg->request_id;
      reply.trace_id = msg->trace_id;
      reply.ok = false;
      env()->Send(from, EncodeTyped(MsgType::kReadReply, reply));
      return;
    }
    served.result = outcome->result.Encode();
    served.result_sha1 = Sha1::Hash(served.result);
    served.cost = outcome->cost;
  }

  // Lie decisions draw from rng_ in a fixed order: the consistent lie
  // first, the inconsistent one only if the first did not fire.
  const bool consistent_lie =
      options_.behavior.lie_probability > 0.0 &&
      rng_.NextBool(options_.behavior.lie_probability);
  const bool lied =
      consistent_lie ||
      (options_.behavior.inconsistent_lie_probability > 0.0 &&
       rng_.NextBool(options_.behavior.inconsistent_lie_probability));
  if (lied) {
    // A lie corrupts a decoded copy of the honest result. Its bytes and its
    // pledge are made fresh and never enter the memo.
    QueryResult result = *QueryResult::Decode(served.result);
    if (result.type == QueryResult::Type::kScalar) {
      result.scalar += 1;
    } else if (consistent_lie && !result.rows.empty()) {
      result.rows[0].second += "\x01";
    } else {
      result.rows.emplace_back("phantom", "entry");
    }
    served.result = result.Encode();
    ++metrics_.lies_told;
    if (consistent_lie) {
      // The paper's threat: a wrong answer with an internally consistent
      // pledge, which hashes the corrupted bytes. The clumsy (inconsistent)
      // lie keeps the honest hash, so clients catch it at the hash check
      // without any master involvement.
      served.result_sha1 = Sha1::Hash(served.result);
      ++metrics_.consistent_lies_told;
    }
    if (t != nullptr) {
      t->Instant(TraceRole::kSlave, id(),
                 consistent_lie ? "slave.lie.consistent"
                                : "slave.lie.inconsistent",
                 msg->trace_id);
    }
  }

  // The pledge binds the token held now, so a state update arriving while
  // the read waits in the queue cannot skew it.
  Pledge pledge;
  pledge.query = std::move(msg->query);
  pledge.result_sha1 = served.result_sha1;
  pledge.token = *token_;
  pledge.slave = id();
  const bool reused = hit && !lied;
  if (reused) {
    pledge.signature = std::move(served.signature);
  } else {
    pledge.signature = signer_.Sign(pledge.SignedBody());
    if (memoizable && !lied &&
        served.result.size() <= kMemoMaxResultBytes) {
      served.signature = pledge.signature;
      memo_.Insert(std::string(AsKey(memo_key)), served);
    }
  }

  // The simulated cost is charged on a memo hit as on a miss: execution,
  // hashing and signing, so simulated latencies and capacity stay those
  // of the protocol as specified. A hit saves only host CPU, which is what
  // a real deployment (sdrnode) spends.
  metrics_.work_units_executed += served.cost;
  SimTime service_time =
      options_.cost.ExecuteTime(served.cost, served.result.size()) +
      options_.cost.SignTime();

  SimTime hold_until = 0;
  if (options_.behavior.split_serve && fork_target) {
    // Targeted slow-lie: hold the equivocating reply until just inside the
    // freshness window, so the victim set's view lags as far as the
    // protocol allows while every pledge still passes the client's checks.
    // The hold delays only the send — stalling a reply costs the slave no
    // CPU, so the service queue (and with it the honest set) keeps moving.
    const SimTime margin = 300 * kMillisecond;  // network slack
    SimTime deadline = token_->timestamp + options_.params.max_latency;
    if (deadline > margin) {
      hold_until = deadline - margin;
    }
  }

  // Fork-consistency commitment: every served read folds its pledge into
  // the serving chain and signs a fresh VersionVector over the new head.
  // An equivocating slave necessarily runs the targeted set on its own
  // chain — one unified chain would commit it to a single history that
  // contradicts one set's answers — so the per-set heads diverge and both
  // chains walk every length past the copy point. Selection happens here;
  // the fold and signature happen in the closure, in queue (FIFO) order,
  // so chain state and commitments match the order replies actually leave.
  const int chain = options_.params.fork_check_enabled && fork_target ? 1 : 0;
  if (options_.params.fork_check_enabled) {
    service_time += options_.cost.SignTime();  // the commitment signature
  }

  // The reply leaves when the simulated CPU has produced and signed it.
  if (t != nullptr) {
    t->SpanBegin(TraceRole::kSlave, id(), "slave.serve", msg->trace_id);
  }
  queue_->Enqueue(service_time, [this, from, request_id = msg->request_id,
                                 trace_id = msg->trace_id,
                                 result = std::move(served.result),
                                 pledge = std::move(pledge), reused, chain,
                                 hold_until]() mutable {
    ReadReply reply;
    reply.request_id = request_id;
    reply.trace_id = trace_id;
    reply.ok = true;
    reply.result = std::move(result);
    reply.pledge = std::move(pledge);
    if (options_.params.fork_check_enabled) {
      if (chain == 1 && !chain1_forked_) {
        chains_[1] = chains_[0];  // the fork copies the honest history
        chain1_forked_ = true;
      }
      reply.vv = chains_[chain].ExtendAndCommit(
          signer_, id(), reply.pledge.token.content_version, reply.pledge);
      ++metrics_.vvs_attached;
    }
    ++metrics_.reads_served;
    metrics_.pledge_signatures_reused += reused ? 1 : 0;
    Payload payload = EncodeTyped(MsgType::kReadReply, reply);
    SimTime now = env()->Now();
    if (hold_until > now) {
      env()->ScheduleAfter(hold_until - now,
                           [this, from, trace_id,
                            payload = std::move(payload)] {
        if (TraceSink* sink = env()->trace()) {
          sink->SpanEnd(TraceRole::kSlave, id(), "slave.serve", trace_id);
        }
        env()->Send(from, payload);
      });
      return;
    }
    if (TraceSink* sink = env()->trace()) {
      sink->SpanEnd(TraceRole::kSlave, id(), "slave.serve", trace_id);
    }
    env()->Send(from, payload);
  });
}

}  // namespace sdr
