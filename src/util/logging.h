// Tiny leveled logger. Simulation code logs with the virtual timestamp via
// the SIM_LOG wrapper in src/sim/simulator.h; everything else uses LOG().
#ifndef SDR_SRC_UTIL_LOGGING_H_
#define SDR_SRC_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace sdr {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Minimum level; messages below it are discarded. kWarn, so tests and
// benchmarks stay quiet.
LogLevel GetLogLevel();

// Emits one line to stderr: "[LEVEL] message".
void LogLine(LogLevel level, const std::string& message);

// Stream-style helper: Log(LogLevel::kInfo) << "x=" << x; emits at scope end.
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() {
    if (level_ >= GetLogLevel()) {
      LogLine(level_, ss_.str());
    }
  }
  template <typename T>
  LogStream& operator<<(const T& v) {
    if (level_ >= GetLogLevel()) {
      ss_ << v;
    }
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream ss_;
};

#define SDR_LOG(level) ::sdr::LogStream(::sdr::LogLevel::level)

}  // namespace sdr

#endif  // SDR_SRC_UTIL_LOGGING_H_
