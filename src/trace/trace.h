// Causal event tracing: a ring-buffered sink of typed events stamped with
// sim-time, node id/role, and a trace (causal) id that rides on protocol
// messages, so one read's pledge can be followed client -> slave ->
// auditor -> master verdict after the run.
//
// Zero-overhead-when-disabled contract: nodes reach the sink through
// `Simulator::trace()`, which is null unless a run opted in. Trace ids are
// minted and carried on the wire unconditionally (pure arithmetic on
// already-deterministic request ids), so enabling tracing cannot change
// simulation behavior — it only records.
//
// Determinism: events are appended in event-loop execution order, string
// interning uses an ordered map, and histograms key on an ordered tuple,
// so two same-seed runs produce byte-identical exports (R1/R2 discipline).
#ifndef SDR_SRC_TRACE_TRACE_H_
#define SDR_SRC_TRACE_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/runtime/env.h"
#include "src/trace/histogram.h"
#include "src/util/serde.h"

namespace sdr {

// Causal id for one read/pledge lifecycle; 0 means "not traced".
// Minted by the originating client as (client_id << 32) | request_id —
// deterministic, collision-free across nodes, and stable across replays.
using TraceId = uint64_t;

constexpr TraceId kNoTrace = 0;

inline TraceId MintTraceId(uint32_t node, uint64_t request_id) {
  return (static_cast<TraceId>(node) << 32) | (request_id & 0xffffffffull);
}

enum class TraceEventType : uint8_t {
  kSpanBegin = 0,
  kSpanEnd = 1,
  kInstant = 2,
};
constexpr TraceEventType WireEnumLast(TraceEventType) {
  return TraceEventType::kInstant;
}

enum class TraceRole : uint8_t {
  kNone = 0,
  kClient = 1,
  kSlave = 2,
  kMaster = 3,
  kAuditor = 4,
  kDirectory = 5,
  kSim = 6,
  kChaos = 7,
};
constexpr TraceRole WireEnumLast(TraceRole) { return TraceRole::kChaos; }

const char* TraceRoleName(TraceRole role);

struct TraceEvent {
  SimTime time = 0;
  TraceId trace_id = kNoTrace;
  // Payload: span end duration hint, or event-specific
  // detail (e.g. the excluded slave's id on "master.exclude").
  int64_t value = 0;
  uint32_t node = 0;
  uint16_t name = 0;  // interned; resolve via TraceSink::name()
  TraceEventType type = TraceEventType::kInstant;
  TraceRole role = TraceRole::kNone;

  // A fixed 32-byte record in the trace file.
  SDR_WIRE_FIELDS(TraceEvent, time, trace_id, value, node, name, type, role)
};

// Ring-buffered event sink plus per-(name, role, node) latency histograms.
// Owned by the harness (Cluster or sdrnode); nodes reach it via
// env()->trace() (null when tracing is off, making every instrumentation
// site one branch).
class TraceSink {
 public:
  struct Options {
    // Ring capacity in events; oldest events are dropped once full.
    size_t capacity = 1 << 20;
    // Record a span around every simulator event dispatch (very chatty;
    // off by default even when tracing is on).
    bool sim_spans = false;
  };

  // `clock` stamps events: the Simulator in simulations, the RealEnv on a
  // live node. Only Now() is read.
  TraceSink(const Clock* clock, Options options);

  bool sim_spans() const { return options_.sim_spans; }

  // Registers a node for exporter metadata (process names in Chrome JSON,
  // role labels in reports). Safe to call once per node at cluster setup.
  void RegisterNode(uint32_t node, TraceRole role, const std::string& label);

  void SpanBegin(TraceRole role, uint32_t node, const char* name,
                 TraceId trace_id = kNoTrace, int64_t value = 0);
  void SpanEnd(TraceRole role, uint32_t node, const char* name,
               TraceId trace_id = kNoTrace, int64_t value = 0);
  void Instant(TraceRole role, uint32_t node, const char* name,
               TraceId trace_id = kNoTrace, int64_t value = 0);

  // Per-node histogram for `name` (e.g. "read_rtt_us"); created on first
  // use. Callers Record() into the returned reference.
  LatencyHistogram& Hist(TraceRole role, uint32_t node, const char* name);

  // All histograms with the same name merged across roles and nodes,
  // keyed by name — the run-end summary view.
  std::map<std::string, LatencyHistogram> MergedHistograms() const;

  // Events in emission order (oldest surviving first).
  std::vector<TraceEvent> Events() const;

  size_t size() const;
  uint64_t total_emitted() const { return total_; }
  uint64_t dropped() const;

  uint16_t InternName(const std::string& name);
  const std::string& name(uint16_t id) const { return names_[id]; }
  const std::vector<std::string>& names() const { return names_; }

  struct NodeInfo {
    TraceRole role = TraceRole::kNone;
    std::string label;
  };
  const std::map<uint32_t, NodeInfo>& nodes() const { return nodes_; }

  using HistKey = std::tuple<uint16_t, uint8_t, uint32_t>;  // name, role, node
  const std::map<HistKey, LatencyHistogram>& histograms() const {
    return hists_;
  }

 private:
  void Emit(TraceEventType type, TraceRole role, uint32_t node,
            const char* name, TraceId trace_id, int64_t value);

  const Clock* clock_;
  Options options_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;     // next write slot once the ring is full
  uint64_t total_ = 0;  // events emitted over the run's lifetime

  std::vector<std::string> names_;          // id -> name ("" at id 0)
  std::map<std::string, uint16_t> interned_;
  std::map<uint32_t, NodeInfo> nodes_;
  std::map<HistKey, LatencyHistogram> hists_;
};

// RAII span helper for straight-line scopes; null-sink safe.
class TraceSpan {
 public:
  TraceSpan(TraceSink* sink, TraceRole role, uint32_t node, const char* name,
            TraceId trace_id = kNoTrace)
      : sink_(sink), role_(role), node_(node), name_(name),
        trace_id_(trace_id) {
    if (sink_ != nullptr) {
      sink_->SpanBegin(role_, node_, name_, trace_id_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (sink_ != nullptr) {
      sink_->SpanEnd(role_, node_, name_, trace_id_, value_);
    }
  }
 private:
  TraceSink* sink_;
  TraceRole role_;
  uint32_t node_;
  const char* name_;
  TraceId trace_id_;
  int64_t value_ = 0;
};

}  // namespace sdr

#endif  // SDR_SRC_TRACE_TRACE_H_
