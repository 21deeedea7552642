// Whole-file reads and writes for the command-line tools, with every stdio
// error checked: a read fails on an open or read error (reading a
// directory, say), and a write fails on an open error, a short write, or an
// error fclose reports for buffered bytes it could not flush (a full disk).
#ifndef SDR_SRC_UTIL_FILE_H_
#define SDR_SRC_UTIL_FILE_H_

#include <string>
#include <string_view>

#include "src/util/bytes.h"
#include "src/util/result.h"

namespace sdr {

// The whole content of `path`.
Result<std::string> ReadFile(const std::string& path);

// Creates or truncates `path` and writes `data` to it.
Status WriteFile(const std::string& path, BytesView data);
inline Status WriteFile(const std::string& path, std::string_view data) {
  return WriteFile(path,
                   BytesView(reinterpret_cast<const uint8_t*>(data.data()),
                             data.size()));
}

}  // namespace sdr

#endif  // SDR_SRC_UTIL_FILE_H_
