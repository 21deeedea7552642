#include "src/util/file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace sdr {
namespace {

// `err` is the errno of the failed call; stdio need not set one.
Error FileError(const char* what, const std::string& path, int err) {
  const std::string message = std::string(what) + " " + path + ": ";
  return Error(ErrorCode::kUnavailable,
               message + std::strerror(err != 0 ? err : EIO));
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return FileError("cannot open", path, errno);
  }
  std::string out;
  char buf[65536];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  const int err = errno;
  std::fclose(f);
  if (!ok) {
    return FileError("cannot read", path, err);
  }
  return out;
}

Status WriteFile(const std::string& path, BytesView data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return FileError("cannot open", path, errno);
  }
  const size_t n =
      data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  bool ok = n == data.size();
  int err = errno;
  // fclose flushes the stdio buffer, so a full disk often shows up only here.
  if (std::fclose(f) != 0 && ok) {
    ok = false;
    err = errno;
  }
  if (!ok) {
    return FileError("cannot write", path, err);
  }
  return Status::Ok();
}

}  // namespace sdr
