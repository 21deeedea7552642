// Streaming statistics. Latency distributions use LatencyHistogram
// (src/trace/histogram.h).
#ifndef SDR_SRC_UTIL_STATS_H_
#define SDR_SRC_UTIL_STATS_H_

#include <cstdint>
#include <limits>

namespace sdr {

// Welford streaming mean/variance with min/max.
class RunningStat {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace sdr

#endif  // SDR_SRC_UTIL_STATS_H_
