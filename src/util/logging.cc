#include "src/util/logging.h"

#include <cstdio>

namespace sdr {

namespace {
constexpr LogLevel kMinLevel = LogLevel::kWarn;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() {
  return kMinLevel;
}

void LogLine(LogLevel level, const std::string& message) {
  if (level < kMinLevel) {
    return;
  }
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), message.c_str());
}

}  // namespace sdr
