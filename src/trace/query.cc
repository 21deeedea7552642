#include "src/trace/query.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace sdr {
namespace {

std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

std::string FmtTime(SimTime us) {
  return Fmt("%10.3fms", static_cast<double>(us) / 1000.0);
}

const char* EventTypeGlyph(TraceEventType type) {
  switch (type) {
    case TraceEventType::kSpanBegin:
      return "[";
    case TraceEventType::kSpanEnd:
      return "]";
    case TraceEventType::kInstant:
      return "*";
  }
  return "?";
}

}  // namespace

TraceQuery::TraceQuery(const TraceData& data) : data_(data) {
  for (size_t i = 0; i < data_.events.size(); ++i) {
    TraceId id = data_.events[i].trace_id;
    if (id != kNoTrace) {
      by_id_[id].push_back(i);
    }
  }
}

std::vector<TraceEvent> TraceQuery::Chain(TraceId id) const {
  std::vector<TraceEvent> out;
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return out;
  }
  out.reserve(it->second.size());
  for (size_t index : it->second) {
    out.push_back(data_.events[index]);
  }
  return out;
}

std::string TraceQuery::FormatChain(TraceId id) const {
  std::vector<TraceEvent> chain = Chain(id);
  if (chain.empty()) {
    return Fmt("trace id 0x%" PRIx64 ": no events (unknown id, or evicted "
               "from the ring buffer)\n", id);
  }
  std::string out = Fmt("causal chain 0x%" PRIx64 " (%zu events, client %u, "
                        "span %.3fms):\n",
                        id, chain.size(),
                        static_cast<unsigned>(id >> 32),
                        static_cast<double>(chain.back().time -
                                            chain.front().time) / 1000.0);
  SimTime prev = chain.front().time;
  for (const TraceEvent& ev : chain) {
    SimTime hop = ev.time - prev;
    prev = ev.time;
    out += Fmt("  %s  +%9.3fms  %s %-9s n%-4u  %s", FmtTime(ev.time).c_str(),
               static_cast<double>(hop) / 1000.0, EventTypeGlyph(ev.type),
               TraceRoleName(ev.role), ev.node, data_.Name(ev.name).c_str());
    if (ev.value != 0) {
      out += Fmt("  (value=%" PRId64 ")", ev.value);
    }
    out += "\n";
  }
  return out;
}

std::vector<TraceQuery::ReadDuration> TraceQuery::SlowestReads(
    size_t n) const {
  std::vector<ReadDuration> reads;
  // Match read span begin/end per trace id. A retried read reuses its
  // trace id, so take the first begin and the last end.
  for (const auto& [id, indices] : by_id_) {
    ReadDuration rd;
    rd.id = id;
    bool have_begin = false;
    bool have_end = false;
    SimTime end_time = 0;
    for (size_t index : indices) {
      const TraceEvent& ev = data_.events[index];
      if (data_.Name(ev.name) != "read") {
        continue;
      }
      if (ev.type == TraceEventType::kSpanBegin && !have_begin) {
        rd.begin = ev.time;
        rd.node = ev.node;
        have_begin = true;
      } else if (ev.type == TraceEventType::kSpanEnd) {
        end_time = ev.time;
        rd.accepted = ev.value != 0;
        have_end = true;
      }
    }
    if (have_begin && have_end) {
      rd.duration = end_time - rd.begin;
      reads.push_back(rd);
    }
  }
  std::sort(reads.begin(), reads.end(),
            [](const ReadDuration& a, const ReadDuration& b) {
              return a.duration != b.duration ? a.duration > b.duration
                                              : a.id < b.id;
            });
  if (reads.size() > n) {
    reads.resize(n);
  }
  return reads;
}

std::string TraceQuery::FormatSlowest(size_t n) const {
  std::vector<ReadDuration> reads = SlowestReads(n);
  if (reads.empty()) {
    return "no completed read spans in trace\n";
  }
  std::string out =
      Fmt("slowest %zu read chains:\n"
          "        trace id    client      begin      duration  outcome\n",
          reads.size());
  for (const ReadDuration& rd : reads) {
    out += Fmt("  0x%014" PRIx64 "  n%-6u %s  %9.3fms  %s\n", rd.id, rd.node,
               FmtTime(rd.begin).c_str(),
               static_cast<double>(rd.duration) / 1000.0,
               rd.accepted ? "accepted" : "failed");
  }
  return out;
}

std::vector<TraceQuery::Verdict> TraceQuery::Verdicts() const {
  std::vector<Verdict> out;
  for (const TraceEvent& ev : data_.events) {
    if (ev.type == TraceEventType::kInstant &&
        data_.Name(ev.name) == "master.exclude") {
      Verdict v;
      v.time = ev.time;
      v.master = ev.node;
      v.excluded_slave = static_cast<uint32_t>(ev.value);
      v.id = ev.trace_id;
      out.push_back(v);
    }
  }
  return out;
}

std::string TraceQuery::FormatVerdicts() const {
  std::vector<Verdict> verdicts = Verdicts();
  if (verdicts.empty()) {
    return "no exclusions in trace\n";
  }
  std::string out = Fmt("%zu exclusion verdict(s):\n", verdicts.size());
  for (const Verdict& v : verdicts) {
    out += Fmt("- at %s master n%u excluded slave n%u", FmtTime(v.time).c_str(),
               v.master, v.excluded_slave);
    if (v.id != kNoTrace) {
      out += Fmt("  (evidence chain 0x%" PRIx64 ")\n", v.id);
      out += FormatChain(v.id);
    } else {
      out += "  (untraced evidence)\n";
    }
  }
  return out;
}

std::string TraceQuery::FormatSummary() const {
  std::string out;
  out += Fmt("trace: %zu events (%" PRIu64 " dropped), %zu causal chains, "
             "%zu nodes\n",
             data_.events.size(), data_.dropped, by_id_.size(),
             data_.nodes.size());

  out += "nodes:\n";
  for (const auto& [node, info] : data_.nodes) {
    out += Fmt("  n%-4u %-9s %s\n", node, TraceRoleName(info.role),
               info.label.c_str());
  }

  // Event-name frequencies, keyed by interned id (stable across runs).
  std::map<uint16_t, uint64_t> counts;
  for (const TraceEvent& ev : data_.events) {
    ++counts[ev.name];
  }
  out += "events by name:\n";
  for (const auto& [name, count] : counts) {
    out += Fmt("  %-24s %" PRIu64 "\n", data_.Name(name).c_str(), count);
  }

  std::map<std::string, LatencyHistogram> merged = data_.MergedHistograms();
  if (!merged.empty()) {
    out += "histograms (merged across nodes, microseconds):\n";
    out += Fmt("  %-22s %10s %10s %10s %10s %10s\n", "name", "count", "mean",
               "p50", "p99", "max");
    for (const auto& [name, hist] : merged) {
      out += Fmt("  %-22s %10" PRIu64 " %10.1f %10" PRId64 " %10" PRId64
                 " %10" PRId64 "\n",
                 name.c_str(), hist.count(), hist.Mean(), hist.Median(),
                 hist.P99(), hist.max());
    }
  }
  return out;
}

std::vector<TraceId> TraceQuery::TraceIds() const {
  std::vector<TraceId> out;
  out.reserve(by_id_.size());
  for (const auto& [id, indices] : by_id_) {
    out.push_back(id);
  }
  return out;
}

bool ParseTraceId(const std::string& s, TraceId* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  uint64_t v = std::strtoull(s.c_str(), &end, 0);  // base 0: dec or 0x-hex
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace sdr
