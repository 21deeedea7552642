#include "src/trace/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace sdr {
namespace {

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

bool TraceFile::WireValid() const {
  if (magic != kMagic || version != kVersion) {
    return false;
  }
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i - 1].id >= nodes[i].id) {
      return false;
    }
  }
  for (const HistRecord& h : histograms) {
    uint64_t total = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      const auto [index, n] = h.buckets[i];
      if (index > kMaxBucket || n == 0 || n > h.count - total ||
          (i > 0 && h.buckets[i - 1].first >= index)) {
        return false;
      }
      total += n;
    }
    if (total != h.count) {
      return false;
    }
  }
  return true;
}

Bytes EncodeTrace(const TraceData& data) {
  TraceFile file;
  file.names = data.names;
  for (const auto& [node, info] : data.nodes) {
    file.nodes.push_back({node, info.role, info.label});
  }
  file.events = data.events;
  for (const TraceData::HistEntry& entry : data.histograms) {
    const LatencyHistogram& hist = entry.hist;
    TraceFile::HistRecord record{entry.name, entry.role, entry.node,
                                 hist.count(), hist.min(), hist.max(),
                                 hist.sum(), {}};
    for (size_t i = 0; i < hist.buckets().size(); ++i) {
      if (hist.buckets()[i] != 0) {
        record.buckets.emplace_back(static_cast<uint32_t>(i),
                                    hist.buckets()[i]);
      }
    }
    file.histograms.push_back(std::move(record));
  }
  file.dropped = data.dropped;
  return file.Encode();
}

Result<TraceData> DecodeTrace(BytesView buf) {
  auto file = TraceFile::Decode(buf);
  if (!file.ok()) {
    const Bytes header = TraceFile{}.Encode();  // magic, version, then empty
    if (buf.size() < 6 || !std::equal(buf.begin(), buf.begin() + 6,
                                      header.begin())) {
      return Error(ErrorCode::kCorrupt, "not an SDRT v2 trace file");
    }
    return file.error();
  }
  TraceData data;
  data.names = std::move(file->names);
  for (TraceFile::NodeRecord& node : file->nodes) {
    data.nodes.emplace_hint(data.nodes.end(), node.id,
                            TraceSink::NodeInfo{node.role,
                                                std::move(node.label)});
  }
  data.events = std::move(file->events);
  for (const TraceFile::HistRecord& record : file->histograms) {
    TraceData::HistEntry entry{record.name, record.role, record.node, {}};
    for (const auto& [index, n] : record.buckets) {
      entry.hist.AddBucketCount(index, n);
    }
    entry.hist.SetStats(record.min, record.max, record.sum);
    data.histograms.push_back(std::move(entry));
  }
  data.dropped = file->dropped;
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
    if (ev.value != 0) {
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
