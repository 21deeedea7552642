// Deterministic JSON writer. Objects are std::map-backed, so keys emit in
// sorted order and a metrics dump is byte-identical across runs with the
// same seed — which is what lets CI diff `sdrsim --json` artifacts and what
// rule R2 (ordered output) exists to protect.
#ifndef SDR_UTIL_JSON_H_
#define SDR_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sdr {

class JsonValue {
 public:
  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(int64_t i) : kind_(Kind::kInt), int_(i) {}
  JsonValue(uint64_t u) : JsonValue(static_cast<int64_t>(u)) {}
  JsonValue(int i) : JsonValue(static_cast<int64_t>(i)) {}
  JsonValue(double d) : kind_(Kind::kDouble), double_(d) {}
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}

  static JsonValue Object();
  static JsonValue Array();

  // Object access; sets kind to object on first use.
  JsonValue& operator[](const std::string& key);
  // Array append; sets kind to array on first use.
  void Append(JsonValue v);


  // Serializes with sorted object keys. `indent` < 0 means compact
  // single-line output; otherwise pretty-print with that indent step.
  std::string Dump(int indent = -1) const;

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kObject, kArray };

  void DumpTo(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
  std::map<std::string, JsonValue> obj_;
  std::vector<JsonValue> arr_;
};

// JSON string escaping (quotes not included).
std::string JsonEscape(const std::string& s);

}  // namespace sdr

#endif  // SDR_UTIL_JSON_H_
