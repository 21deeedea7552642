// Trace exporters: a compact binary trace file (loadable by sdrtrace), a
// Chrome trace_event JSON document (loadable in Perfetto / chrome://tracing),
// and histogram summaries for the byte-stable --json report. All three are
// deterministic functions of the sink contents.
#ifndef SDR_SRC_TRACE_EXPORT_H_
#define SDR_SRC_TRACE_EXPORT_H_

#include <map>
#include <string>
#include <vector>

#include "src/trace/histogram.h"
#include "src/trace/trace.h"
#include "src/util/bytes.h"
#include "src/util/json.h"
#include "src/util/result.h"

namespace sdr {

// In-memory image of a trace: what the binary file round-trips. Built from
// a live sink via Snapshot() or from a file via DecodeTrace().
struct TraceData {
  std::vector<std::string> names;  // index 0 is the reserved empty name
  std::map<uint32_t, TraceSink::NodeInfo> nodes;
  std::vector<TraceEvent> events;  // emission order, oldest first

  struct HistEntry {
    uint16_t name = 0;
    TraceRole role = TraceRole::kNone;
    uint32_t node = 0;
    LatencyHistogram hist;
  };
  std::vector<HistEntry> histograms;  // sorted by (name, role, node)

  uint64_t dropped = 0;

  const std::string& Name(uint16_t id) const {
    static const std::string kUnknown = "?";
    return id < names.size() ? names[id] : kUnknown;
  }
  std::map<std::string, LatencyHistogram> MergedHistograms() const;
};

TraceData Snapshot(const TraceSink& sink);

// The binary trace file "SDRT", version 2: magic and version, the string
// table, the node registry, fixed-width events, sparse histogram buckets
// and the dropped-event count, as one field list. Byte-stable for equal
// sink contents; WireValid admits only what EncodeTrace writes.
struct TraceFile {
  static constexpr uint32_t kMagic = 0x54524453;  // "SDRT" little-endian
  static constexpr uint16_t kVersion = 2;
  static constexpr uint32_t kMaxBucket = 1u << 20;

  struct NodeRecord {
    uint32_t id = 0;
    TraceRole role = TraceRole::kNone;
    std::string label;
    SDR_WIRE_FIELDS(NodeRecord, id, role, label)
  };
  struct HistRecord {
    uint16_t name = 0;
    TraceRole role = TraceRole::kNone;
    uint32_t node = 0;
    uint64_t count = 0;
    int64_t min = 0;
    int64_t max = 0;
    double sum = 0.0;
    // (index, count) of the non-zero buckets, indexes ascending; the
    // counts add up to `count`.
    std::vector<std::pair<uint32_t, uint64_t>> buckets;
    SDR_WIRE_FIELDS(HistRecord, name, role, node, count, min, max, sum,
                    buckets)
  };

  uint32_t magic = kMagic;
  uint16_t version = kVersion;
  std::vector<std::string> names;
  std::vector<NodeRecord> nodes;  // ids strictly ascending
  std::vector<TraceEvent> events;
  std::vector<HistRecord> histograms;
  uint64_t dropped = 0;

  SDR_WIRE_FIELDS(TraceFile, magic, version, names, nodes, events,
                  histograms, dropped)
  bool WireValid() const;
};

Bytes EncodeTrace(const TraceData& data);
inline Bytes EncodeTrace(const TraceSink& sink) {
  return EncodeTrace(Snapshot(sink));
}
Result<TraceData> DecodeTrace(BytesView buf);

// Chrome trace_event JSON (https://docs.google.com/document/d/1CvAClvFfyA5R-
// PhYUmn5OOQtYMH4h6I0nSsKchNAySU): one process per registered node, spans as
// B/E pairs, instants as "i", counters as "C". ts is virtual microseconds.
JsonValue ChromeTraceJson(const TraceData& data);
inline JsonValue ChromeTraceJson(const TraceSink& sink) {
  return ChromeTraceJson(Snapshot(sink));
}

// Histogram summary block for the sdrsim --json report: per-name merged
// {count, min, max, mean, p50, p99} objects keyed by histogram name.
JsonValue HistogramSummaryJson(
    const std::map<std::string, LatencyHistogram>& merged);

}  // namespace sdr

#endif  // SDR_SRC_TRACE_EXPORT_H_
