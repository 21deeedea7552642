#include "src/core/metrics.h"

namespace sdr {
namespace metrics_internal {

void AddJson(JsonValue& out, const char* name, uint64_t value) {
  out[name] = value;
}

void AddJson(JsonValue& out, const char* name, const LatencyHistogram& h) {
  std::string stem(name);
  stem.resize(stem.size() - 3);  // drop the "_us" every histogram ends in
  out[stem + "_p50_us"] = h.Median();
  out[stem + "_p99_us"] = h.P99();
}

}  // namespace metrics_internal
}  // namespace sdr
