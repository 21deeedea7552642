// File collection and the two-pass lint driver.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tools/lint/lint.h"

namespace sdr::lint {

namespace {

bool IsSourceFile(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".hpp" || ext == ".cpp";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return out.good();
}

}  // namespace

std::vector<std::string> CollectFiles(const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(p, ec)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(p, ec)) {
        if (entry.is_regular_file(ec) && IsSourceFile(entry.path())) {
          files.push_back(entry.path().generic_string());
        }
      }
    } else {
      files.push_back(p);  // taken as given, even with an odd extension
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

int RunTool(const std::vector<std::string>& paths) {
  return RunTool(paths, RunOptions{});
}

int RunTool(const std::vector<std::string>& paths, const RunOptions& opts) {
  // A typo'd path must fail the gate, not silently lint nothing.
  int missing = 0;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (!std::filesystem::exists(p, ec)) {
      std::fprintf(stderr, "sdrlint: no such path: %s\n", p.c_str());
      ++missing;
    }
  }
  if (missing != 0) {
    return missing;
  }
  const std::vector<std::string> files = CollectFiles(paths);

  // Pass 1: the cross-TU symbol index — protocol enums, annotated members,
  // and R9's declarations and references — spans all files, so a switch,
  // a member access or a call in one translation unit is checked against
  // declarations in another.
  SymbolIndex index;
  std::map<std::string, std::string> contents;
  for (const std::string& f : files) {
    contents[f] = ReadFile(f);
    IndexSource(f, contents[f], index);
  }

  // Pass 2: per-file rules, then R9 over the whole index.
  std::vector<Finding> findings;
  for (const std::string& f : files) {
    std::vector<Finding> fs =
        AnalyzeSource(f, contents[f], ClassifyPath(f), index);
    findings.insert(findings.end(), fs.begin(), fs.end());
  }
  std::vector<Finding> r9 = CheckReachability(index);
  findings.insert(findings.end(), r9.begin(), r9.end());
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) {
                return a.file < b.file;
              }
              if (a.line != b.line) {
                return a.line < b.line;
              }
              if (a.rule != b.rule) {
                return a.rule < b.rule;
              }
              return a.message < b.message;
            });

  if (opts.update_baseline) {
    if (opts.baseline_path.empty()) {
      std::fprintf(stderr,
                   "sdrlint: --update_baseline requires --baseline=FILE\n");
      return 1;
    }
    if (!WriteFile(opts.baseline_path, BaselineToJson(findings))) {
      std::fprintf(stderr, "sdrlint: cannot write baseline %s\n",
                   opts.baseline_path.c_str());
      return 1;
    }
    std::printf("sdrlint: baseline %s updated with %zu finding%s\n",
                opts.baseline_path.c_str(), findings.size(),
                findings.size() == 1 ? "" : "s");
    return 0;
  }

  BaselineDiff diff;
  const BaselineDiff* diff_ptr = nullptr;
  int gate = (int)findings.size();
  if (!opts.baseline_path.empty()) {
    std::map<std::string, int> baseline;
    if (!LoadBaseline(opts.baseline_path, &baseline)) {
      std::fprintf(stderr, "sdrlint: cannot read baseline %s\n",
                   opts.baseline_path.c_str());
      return 1;
    }
    diff = DiffAgainstBaseline(findings, baseline);
    diff_ptr = &diff;
    gate = (int)diff.fresh.size();
    for (const Finding& fi : diff.suppressed) {
      std::printf("%s:%d: [%s] (baseline) %s\n", fi.file.c_str(), fi.line,
                  fi.rule.c_str(), fi.message.c_str());
    }
    for (const Finding& fi : diff.fresh) {
      std::printf("%s:%d: [%s] %s\n", fi.file.c_str(), fi.line,
                  fi.rule.c_str(), fi.message.c_str());
    }
    for (const std::string& key : diff.fixed) {
      std::printf("sdrlint: baseline entry fixed (delete it): %s\n",
                  key.c_str());
    }
  } else {
    for (const Finding& fi : findings) {
      std::printf("%s:%d: [%s] %s\n", fi.file.c_str(), fi.line,
                  fi.rule.c_str(), fi.message.c_str());
    }
  }

  if (!opts.json_path.empty() &&
      !WriteFile(opts.json_path, ReportJson(files.size(), findings,
                                            diff_ptr))) {
    std::fprintf(stderr, "sdrlint: cannot write report %s\n",
                 opts.json_path.c_str());
    return gate + 1;
  }

  if (diff_ptr != nullptr) {
    std::printf("sdrlint: %zu files, %zu finding%s (%zu baseline, %d fresh, "
                "%zu fixed)\n",
                files.size(), findings.size(),
                findings.size() == 1 ? "" : "s", diff.suppressed.size(), gate,
                diff.fixed.size());
  } else if (gate == 0) {
    std::printf("sdrlint: %zu files, clean\n", files.size());
  } else {
    std::printf("sdrlint: %zu files, %d finding%s\n", files.size(), gate,
                gate == 1 ? "" : "s");
  }
  return gate;
}

}  // namespace sdr::lint
