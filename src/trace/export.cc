#include "src/trace/export.h"

#include <cinttypes>
#include <cstdio>

#include "src/util/serde.h"

namespace sdr {
namespace {

constexpr uint32_t kTraceMagic = 0x54524453;  // "SDRT" little-endian
constexpr uint16_t kTraceVersion = 1;

std::string HexTraceId(TraceId id) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, id);
  return buf;
}

}  // namespace

std::map<std::string, LatencyHistogram> TraceData::MergedHistograms() const {
  std::map<std::string, LatencyHistogram> merged;
  for (const HistEntry& entry : histograms) {
    merged[Name(entry.name)].Merge(entry.hist);
  }
  return merged;
}

TraceData Snapshot(const TraceSink& sink) {
  TraceData data;
  data.names = sink.names();
  data.nodes = sink.nodes();
  data.events = sink.Events();
  for (const auto& [key, hist] : sink.histograms()) {
    TraceData::HistEntry entry;
    entry.name = std::get<0>(key);
    entry.role = static_cast<TraceRole>(std::get<1>(key));
    entry.node = std::get<2>(key);
    entry.hist = hist;
    data.histograms.push_back(entry);
  }
  data.dropped = sink.dropped();
  return data;
}

Bytes EncodeTrace(const TraceData& data) {
  Writer w;
  w.U32(kTraceMagic);
  w.U16(kTraceVersion);

  w.U32(static_cast<uint32_t>(data.names.size()));
  for (const std::string& name : data.names) {
    w.Blob(name);
  }

  w.U32(static_cast<uint32_t>(data.nodes.size()));
  for (const auto& [node, info] : data.nodes) {
    w.U32(node);
    w.U8(static_cast<uint8_t>(info.role));
    w.Blob(info.label);
  }

  w.U64(data.events.size());
  w.Reserve(data.events.size() * 32);
  for (const TraceEvent& ev : data.events) {
    w.I64(ev.time);
    w.U64(ev.trace_id);
    w.I64(ev.value);
    w.U32(ev.node);
    w.U16(ev.name);
    w.U8(static_cast<uint8_t>(ev.type));
    w.U8(static_cast<uint8_t>(ev.role));
  }

  w.U32(static_cast<uint32_t>(data.histograms.size()));
  for (const TraceData::HistEntry& entry : data.histograms) {
    w.U16(entry.name);
    w.U8(static_cast<uint8_t>(entry.role));
    w.U32(entry.node);
    w.U64(entry.hist.count());
    w.I64(entry.hist.min());
    w.I64(entry.hist.max());
    w.Double(entry.hist.sum());
    // Sparse buckets: only non-zero (index, count) pairs.
    const std::vector<uint64_t>& buckets = entry.hist.buckets();
    uint32_t nonzero = 0;
    for (uint64_t c : buckets) {
      nonzero += (c != 0) ? 1 : 0;
    }
    w.U32(nonzero);
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] != 0) {
        w.U32(static_cast<uint32_t>(i));
        w.U64(buckets[i]);
      }
    }
  }

  w.U64(data.dropped);
  return w.Take();
}

Result<TraceData> DecodeTrace(const Bytes& buf) {
  Reader r(buf);
  if (r.U32() != kTraceMagic) {
    return Error(ErrorCode::kCorrupt, "not an SDRT trace file");
  }
  if (r.U16() != kTraceVersion) {
    return Error(ErrorCode::kCorrupt, "unsupported trace version");
  }
  TraceData data;

  uint32_t name_count = r.U32();
  for (uint32_t i = 0; r.ok() && i < name_count; ++i) {
    data.names.push_back(r.BlobString());
  }

  uint32_t node_count = r.U32();
  for (uint32_t i = 0; r.ok() && i < node_count; ++i) {
    uint32_t node = r.U32();
    TraceSink::NodeInfo info;
    info.role = static_cast<TraceRole>(r.U8());
    info.label = r.BlobString();
    data.nodes.emplace(node, std::move(info));
  }

  uint64_t event_count = r.U64();
  // Each event is 32 bytes on the wire; reject counts that cannot fit the
  // remaining buffer before reserving memory for them (dividing, since
  // event_count * 32 can wrap).
  if (r.ok() && event_count > r.remaining() / 32) {
    return Error(ErrorCode::kCorrupt, "trace event count exceeds file size");
  }
  data.events.reserve(static_cast<size_t>(event_count));
  for (uint64_t i = 0; r.ok() && i < event_count; ++i) {
    TraceEvent ev;
    ev.time = r.I64();
    ev.trace_id = r.U64();
    ev.value = r.I64();
    ev.node = r.U32();
    ev.name = r.U16();
    ev.type = static_cast<TraceEventType>(r.U8());
    ev.role = static_cast<TraceRole>(r.U8());
    data.events.push_back(ev);
  }

  uint32_t hist_count = r.U32();
  for (uint32_t i = 0; r.ok() && i < hist_count; ++i) {
    TraceData::HistEntry entry;
    entry.name = r.U16();
    entry.role = static_cast<TraceRole>(r.U8());
    entry.node = r.U32();
    uint64_t count = r.U64();
    int64_t min = r.I64();
    int64_t max = r.I64();
    double sum = r.Double();
    uint32_t nonzero = r.U32();
    for (uint32_t b = 0; r.ok() && b < nonzero; ++b) {
      uint32_t index = r.U32();
      uint64_t bucket_count = r.U64();
      if (index > (1u << 20)) {
        return Error(ErrorCode::kCorrupt, "histogram bucket index too large");
      }
      entry.hist.AddBucketCount(index, bucket_count);
    }
    if (entry.hist.count() != count) {
      return Error(ErrorCode::kCorrupt, "histogram count mismatch");
    }
    entry.hist.SetStats(min, max, sum);
    data.histograms.push_back(std::move(entry));
  }

  data.dropped = r.U64();
  if (!r.Done()) {
    return Error(ErrorCode::kCorrupt, "trailing or truncated trace data");
  }
  return data;
}

JsonValue ChromeTraceJson(const TraceData& data) {
  JsonValue doc = JsonValue::Object();
  doc["displayTimeUnit"] = "ms";
  JsonValue events = JsonValue::Array();

  // Process-name metadata first, in node order, so Perfetto labels tracks.
  for (const auto& [node, info] : data.nodes) {
    JsonValue meta = JsonValue::Object();
    meta["ph"] = "M";
    meta["name"] = "process_name";
    meta["pid"] = static_cast<int64_t>(node);
    meta["tid"] = static_cast<int64_t>(node);
    JsonValue args = JsonValue::Object();
    args["name"] = info.label.empty()
                       ? std::string(TraceRoleName(info.role))
                       : info.label;
    meta["args"] = std::move(args);
    events.Append(std::move(meta));
  }

  for (const TraceEvent& ev : data.events) {
    JsonValue j = JsonValue::Object();
    switch (ev.type) {
      case TraceEventType::kSpanBegin:
        j["ph"] = "B";
        break;
      case TraceEventType::kSpanEnd:
        j["ph"] = "E";
        break;
      case TraceEventType::kInstant:
        j["ph"] = "i";
        j["s"] = "t";
        break;
      case TraceEventType::kCounter:
        j["ph"] = "C";
        break;
    }
    j["name"] = data.Name(ev.name);
    j["cat"] = TraceRoleName(ev.role);
    j["ts"] = ev.time;
    j["pid"] = static_cast<int64_t>(ev.node);
    j["tid"] = static_cast<int64_t>(ev.node);
    JsonValue args = JsonValue::Object();
    if (ev.trace_id != kNoTrace) {
      args["trace_id"] = HexTraceId(ev.trace_id);
    }
    if (ev.type == TraceEventType::kCounter) {
      args["value"] = ev.value;
    } else if (ev.value != 0) {
      args["value"] = ev.value;
    }
    j["args"] = std::move(args);
    events.Append(std::move(j));
  }

  doc["traceEvents"] = std::move(events);
  return doc;
}

JsonValue HistogramSummaryJson(
    const std::map<std::string, LatencyHistogram>& merged) {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, hist] : merged) {
    JsonValue j = JsonValue::Object();
    j["count"] = static_cast<int64_t>(hist.count());
    j["min"] = hist.min();
    j["max"] = hist.max();
    j["mean"] = hist.Mean();
    j["p50"] = hist.Median();
    j["p99"] = hist.P99();
    out[name] = std::move(j);
  }
  return out;
}

}  // namespace sdr
