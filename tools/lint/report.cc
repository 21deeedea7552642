// Baseline file handling and the machine-readable findings report. The
// baseline turns sdrlint into a ratchet: CI fails on *new* findings while
// pre-existing, reviewed ones are suppressed until fixed — and a fixed
// finding shows up as a stale entry so the file never rots. Keys omit line
// numbers on purpose: an edit above a baselined finding must not break the
// gate.
#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/util/json.h"
#include "tools/lint/lint.h"

namespace sdr::lint {

namespace {

// Quotes and backslashes in messages are flattened so a key survives the
// round trip through the baseline file with any JSON-ish parser, including
// our own tokenizer.
std::string SanitizeMessage(const std::string& msg) {
  std::string out = msg;
  for (char& c : out) {
    if (c == '"' || c == '\\' || c == '\n') {
      c = '\'';
    }
  }
  return out;
}

}  // namespace

std::string NormalizeRepoPath(const std::string& path) {
  // Take the suffix starting at the first repo-root component, so
  // `sdrlint src tools` (relative) and ctest's absolute
  // `${CMAKE_SOURCE_DIR}/src` produce identical keys.
  static const char* kRoots[] = {"src/",      "tools/", "tests/",   "bench/",
                                 "examples/", "docs/",  "perfbench/"};
  size_t best = std::string::npos;
  for (const char* root : kRoots) {
    size_t pos = path.find(root);
    while (pos != std::string::npos) {
      // Only component boundaries count: start of string or after '/'.
      if (pos == 0 || path[pos - 1] == '/') {
        best = std::min(best, pos);
        break;
      }
      pos = path.find(root, pos + 1);
    }
  }
  return best == std::string::npos ? path : path.substr(best);
}

std::string FindingKey(const Finding& f) {
  return f.rule + "|" + NormalizeRepoPath(f.file) + "|" +
         SanitizeMessage(f.message);
}

bool LoadBaseline(const std::string& path, std::map<std::string, int>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  // The baseline is JSON, but all we need are the string entries of the
  // "findings" array — the lint tokenizer reads them directly.
  const std::vector<Token> toks = Tokenize(ss.str());
  bool in_findings = false;
  int depth = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!in_findings) {
      if (t.kind == TokKind::kString && t.text == "findings" &&
          i + 2 < toks.size() && toks[i + 1].kind == TokKind::kPunct &&
          toks[i + 1].text == ":" && toks[i + 2].kind == TokKind::kPunct &&
          toks[i + 2].text == "[") {
        in_findings = true;
        depth = 0;
        i += 2;
      }
      continue;
    }
    if (t.kind == TokKind::kPunct && t.text == "[") {
      ++depth;
    } else if (t.kind == TokKind::kPunct && t.text == "]") {
      if (depth-- == 0) {
        in_findings = false;
      }
    } else if (t.kind == TokKind::kString) {
      ++(*out)[t.text];
    }
  }
  return true;
}

std::string BaselineToJson(const std::vector<Finding>& findings) {
  std::vector<std::string> keys;
  keys.reserve(findings.size());
  for (const Finding& f : findings) {
    keys.push_back(FindingKey(f));
  }
  std::sort(keys.begin(), keys.end());
  JsonValue root = JsonValue::Object();
  root["tool"] = "sdrlint-baseline-v1";
  root["comment"] =
      "Reviewed pre-existing findings; sdrlint fails only on findings not "
      "listed here. Regenerate with sdrlint --update_baseline after fixing "
      "one.";
  JsonValue arr = JsonValue::Array();
  for (const std::string& k : keys) {
    arr.Append(JsonValue(k));
  }
  root["findings"] = std::move(arr);
  return root.Dump(2) + "\n";
}

BaselineDiff DiffAgainstBaseline(const std::vector<Finding>& findings,
                                 const std::map<std::string, int>& baseline) {
  BaselineDiff diff;
  std::map<std::string, int> used;
  for (const Finding& f : findings) {
    const std::string key = FindingKey(f);
    auto it = baseline.find(key);
    if (it != baseline.end() && used[key] < it->second) {
      ++used[key];
      diff.suppressed.push_back(f);
    } else {
      diff.fresh.push_back(f);
    }
  }
  for (const auto& [key, count] : baseline) {
    for (int i = used[key]; i < count; ++i) {
      diff.fixed.push_back(key);
    }
  }
  return diff;
}

std::string ReportJson(size_t files_scanned,
                       const std::vector<Finding>& findings,
                       const BaselineDiff* diff) {
  JsonValue root = JsonValue::Object();
  root["tool"] = "sdrlint";
  root["files_scanned"] = (int64_t)files_scanned;
  root["total_findings"] = (int64_t)findings.size();

  std::map<std::string, int64_t> per_rule;
  JsonValue arr = JsonValue::Array();
  std::set<std::string> fresh_keys;
  std::map<std::string, int> fresh_budget;
  if (diff != nullptr) {
    for (const Finding& f : diff->fresh) {
      ++fresh_budget[FindingKey(f) + "@" + std::to_string(f.line)];
    }
  }
  for (const Finding& f : findings) {
    ++per_rule[f.rule];
    JsonValue item = JsonValue::Object();
    item["rule"] = f.rule;
    item["file"] = NormalizeRepoPath(f.file);
    item["line"] = (int64_t)f.line;
    item["message"] = f.message;
    item["key"] = FindingKey(f);
    if (diff != nullptr) {
      const std::string slot = FindingKey(f) + "@" + std::to_string(f.line);
      auto it = fresh_budget.find(slot);
      const bool fresh = it != fresh_budget.end() && it->second > 0;
      if (fresh) {
        --it->second;
      }
      item["status"] = fresh ? "fresh" : "baseline";
    }
    arr.Append(std::move(item));
  }
  root["findings"] = std::move(arr);

  JsonValue rules = JsonValue::Object();
  for (const auto& [rule, count] : per_rule) {
    rules[rule] = count;
  }
  root["per_rule"] = std::move(rules);

  if (diff != nullptr) {
    JsonValue b = JsonValue::Object();
    b["fresh"] = (int64_t)diff->fresh.size();
    b["suppressed"] = (int64_t)diff->suppressed.size();
    JsonValue fixed = JsonValue::Array();
    std::vector<std::string> fixed_sorted = diff->fixed;
    std::sort(fixed_sorted.begin(), fixed_sorted.end());
    for (const std::string& k : fixed_sorted) {
      fixed.Append(JsonValue(k));
    }
    b["fixed"] = std::move(fixed);
    root["baseline"] = std::move(b);
  }
  return root.Dump(2) + "\n";
}

}  // namespace sdr::lint
