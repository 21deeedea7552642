#include "src/trace/trace.h"

namespace sdr {

const char* TraceRoleName(TraceRole role) {
  switch (role) {
    case TraceRole::kNone:
      return "none";
    case TraceRole::kClient:
      return "client";
    case TraceRole::kSlave:
      return "slave";
    case TraceRole::kMaster:
      return "master";
    case TraceRole::kAuditor:
      return "auditor";
    case TraceRole::kDirectory:
      return "directory";
    case TraceRole::kSim:
      return "sim";
    case TraceRole::kChaos:
      return "chaos";
  }
  return "unknown";
}

TraceSink::TraceSink(const Clock* clock, Options options)
    : clock_(clock), options_(options) {
  if (options_.capacity == 0) {
    options_.capacity = 1;
  }
  ring_.reserve(options_.capacity < 4096 ? options_.capacity : 4096);
  names_.push_back("");  // id 0 reserved so 0 never aliases a real name
}

void TraceSink::RegisterNode(uint32_t node, TraceRole role,
                             const std::string& label) {
  NodeInfo& info = nodes_[node];
  info.role = role;
  info.label = label;
}

uint16_t TraceSink::InternName(const std::string& name) {
  auto it = interned_.find(name);
  if (it != interned_.end()) {
    return it->second;
  }
  uint16_t id = static_cast<uint16_t>(names_.size());
  names_.push_back(name);
  interned_.emplace(name, id);
  return id;
}

void TraceSink::Emit(TraceEventType type, TraceRole role, uint32_t node,
                     const char* name, TraceId trace_id, int64_t value) {
  TraceEvent ev;
  ev.time = clock_->Now();
  ev.trace_id = trace_id;
  ev.value = value;
  ev.node = node;
  ev.name = InternName(name);
  ev.type = type;
  ev.role = role;
  if (ring_.size() < options_.capacity) {
    ring_.push_back(ev);
  } else {
    ring_[head_] = ev;
    head_ = (head_ + 1) % options_.capacity;
  }
  ++total_;
}

void TraceSink::SpanBegin(TraceRole role, uint32_t node, const char* name,
                          TraceId trace_id, int64_t value) {
  Emit(TraceEventType::kSpanBegin, role, node, name, trace_id, value);
}

void TraceSink::SpanEnd(TraceRole role, uint32_t node, const char* name,
                        TraceId trace_id, int64_t value) {
  Emit(TraceEventType::kSpanEnd, role, node, name, trace_id, value);
}

void TraceSink::Instant(TraceRole role, uint32_t node, const char* name,
                        TraceId trace_id, int64_t value) {
  Emit(TraceEventType::kInstant, role, node, name, trace_id, value);
}

LatencyHistogram& TraceSink::Hist(TraceRole role, uint32_t node,
                                  const char* name) {
  HistKey key{InternName(name), static_cast<uint8_t>(role), node};
  return hists_[key];
}

std::map<std::string, LatencyHistogram> TraceSink::MergedHistograms() const {
  std::map<std::string, LatencyHistogram> merged;
  for (const auto& [key, hist] : hists_) {
    merged[names_[std::get<0>(key)]].Merge(hist);
  }
  return merged;
}

std::vector<TraceEvent> TraceSink::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest first: when the ring has wrapped, head_ points at the oldest
  // surviving event.
  if (ring_.size() == options_.capacity) {
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
  } else {
    out = ring_;
  }
  return out;
}

size_t TraceSink::size() const { return ring_.size(); }

uint64_t TraceSink::dropped() const { return total_ - ring_.size(); }

}  // namespace sdr
