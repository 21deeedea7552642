// sdrlint CLI. Usage: sdrlint [flags] <path>... — lints .h/.cc files under
// each path and exits nonzero when gate-failing findings remain (the CI
// gate). With --baseline only findings not in the baseline fail the gate.
#include <cstdio>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  sdr::lint::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: sdrlint [flags] <path>...\n"
          "  --baseline=FILE    suppress findings listed in FILE; fail only\n"
          "                     on new ones (and report fixed stale entries)\n"
          "  --json=FILE        write a machine-readable findings report\n"
          "  --update_baseline  rewrite --baseline FILE from this run\n"
          "Rules: R1 determinism, R2 ordered-output, R3 switch\n"
          "exhaustiveness over protocol enums, R4 one codec, R5\n"
          "constant-time discipline, R6 thread confinement & lock\n"
          "discipline, R7 BytesView lifetime, R9 production\n"
          "reachability (scan src tools examples perfbench together).\n"
          "See docs/ANALYSIS.md.\n");
      return 0;
    }
    if (arg.rfind("--baseline=", 0) == 0) {
      opts.baseline_path = arg.substr(std::string("--baseline=").size());
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      opts.json_path = arg.substr(std::string("--json=").size());
      continue;
    }
    if (arg == "--update_baseline") {
      opts.update_baseline = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "sdrlint: unknown flag %s (see --help)\n",
                   arg.c_str());
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) {
    std::fprintf(stderr, "usage: sdrlint [flags] <path>...\n");
    return 2;
  }
  return sdr::lint::RunTool(paths, opts) == 0 ? 0 : 1;
}
