// sdrlint — project-invariant linter for the secure-data-replication repo.
//
// A self-contained static analyzer (own tokenizer, no libclang) that
// enforces invariants the compiler cannot check but the paper's guarantees
// depend on. Since v2 it is a two-pass, repo-wide analyzer: pass 1 builds a
// cross-translation-unit SymbolIndex (protocol enums, annotated members);
// pass 2 runs the rule families over each file against it. Rules are named
// and individually suppressible:
//
//   R1 determinism      — no ambient nondeterminism (rand, random_device,
//                         wall clocks, clock_gettime/nanosleep, sockets,
//                         getenv, <random>/<chrono>/<ctime>/<sys/epoll.h>
//                         includes) in src/sim, src/core, src/chaos,
//                         src/trace; the seeded RNG in src/util/rng is the
//                         only sanctioned source. Every chaos sweep and
//                         EXPERIMENTS.md claim depends on bit-identical
//                         replays. src/runtime/ and tools/ are exempt by
//                         design: that is the real-transport domain
//                         (RealEnv, sdrnode, sdrcluster) where real clocks,
//                         sockets, and threads live — protocol role code
//                         reaches them only through the Env interface.
//   R2 ordered-output   — no iteration over std::unordered_map/set inside
//                         functions that feed serialization, metrics dumps,
//                         or log lines (hash order differs across standard
//                         libraries and runs).
//   R3 exhaustiveness   — switches over protocol enums (annotated
//                         `// sdrlint:protocol-enum`) must name every
//                         enumerator and carry no `default:`, so a new
//                         message type or fault kind fails the lint instead
//                         of being silently dropped.
//   R4 one codec        — the codec's reader class is named only in
//                         src/util/serde.{h,cc}: every decoder is a type's
//                         SDR_WIRE_FIELDS list, whose encoder the same list
//                         generates, so no hand-written decoder can drift
//                         from its encoder. Byte builders that only use
//                         Writer (hash preimages) have no decoder and pass.
//   R5 constant-time    — in src/crypto, values tagged `// sdrlint:secret`
//                         must not reach branch conditions, ==/!= compares,
//                         memcmp, or array subscripts; `// sdrlint:public`
//                         downgrades a genuinely public line. Raw memcmp in
//                         crypto code always needs a public annotation or
//                         ConstantTimeEquals.
//   R6 thread discipline — members tagged `sdrlint:guarded_by(m)` may only
//                         be touched while a lock idiom over `m`
//                         (lock_guard/unique_lock/scoped_lock/shared_lock or
//                         m.lock()) is in scope; members tagged
//                         `sdrlint:lane_confined` (per-worker-lane slot
//                         vectors) must be subscripted by the lane id inside
//                         worker-pool parallel regions and never mutated
//                         there; `sdrlint:shared_atomic` asserts the
//                         declaration really is a std::atomic.
//   R7 view lifetime    — a BytesView (non-owning window) may not be stored
//                         in a member or container unless the owning
//                         Payload is co-stored in the same class; views
//                         taken from temporaries (`MakeX().view()`),
//                         returned over function-local buffers, or captured
//                         by reference into deferred callbacks are flagged.
//
//   R9 production reachability — a function declared in a src/ header
//                         must be referenced from production code: src/,
//                         tools/, examples/ or perfbench/. A reference is
//                         any occurrence of its name outside a declaration
//                         or definition; one whose only references are
//                         under tests/ or bench/ (or nowhere) is reported
//                         at its declaration. Repo-wide: it judges only the
//                         files of one run, so the gate scans all four
//                         production roots. Matching is by name, so a
//                         shared name can hide dead code, but a live
//                         function is never reported. Its allow needs a
//                         reason: `sdrlint:allow(R9 <reason>)`.
//
// R8 (serde field-order symmetry) is retired and its id is not reused: with
// one codec there is no hand-written encode/decode pair left to compare.
//
// Annotation grammar (in any comment, same line or a comment-only line
// directly above the code it governs):
//   sdrlint:secret            tag variables declared on this line as secret
//   sdrlint:public            declare this line's data public by design (R5)
//   sdrlint:protocol-enum     mark the enum declared here as a protocol enum
//   sdrlint:guarded_by(m)     member on this line is protected by mutex `m`
//   sdrlint:lane_confined     member is a per-lane slot vector; see R6
//   sdrlint:shared_atomic     member is cross-thread but atomic; see R6
//   sdrlint:allow(Rn[ reason])  suppress rule Rn here (R9 needs the reason)
//
// See docs/ANALYSIS.md for the full rule catalogue and rationale.
#ifndef SDR_TOOLS_LINT_LINT_H_
#define SDR_TOOLS_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace sdr::lint {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class TokKind {
  kIdent,    // identifiers and keywords
  kNumber,   // numeric literals
  kString,   // string literal (text excludes quotes)
  kChar,     // character literal
  kPunct,    // operators and punctuation, longest-match (e.g. "==", "::")
  kComment,  // // or /* */ comment, full text including markers
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based line of the token's first character
};

// Tokenizes C++ source. Comments are kept (annotations live there);
// preprocessor directives are tokenized like ordinary code. Raw strings,
// escapes, and line continuations are handled; the tokenizer never fails —
// unterminated constructs run to end of file.
std::vector<Token> Tokenize(const std::string& src);

// ---------------------------------------------------------------------------
// Findings and per-file rule applicability
// ---------------------------------------------------------------------------

struct Finding {
  std::string rule;  // "R1".."R9"
  std::string file;
  int line = 0;
  std::string message;
};

// Which rules apply to a file, derived from its repo-relative path.
struct FileClass {
  bool r1 = false;  // determinism domain: src/sim, src/core, src/chaos
  bool r2 = true;   // everywhere
  bool r3 = true;   // everywhere
  bool r5 = false;  // src/crypto
  bool r6 = true;   // everywhere (annotation-driven)
  bool r7 = true;   // everywhere (BytesView/Payload lifetime)
  // R4 runs everywhere but in the codec itself, src/util/serde.{h,cc}.
};

FileClass ClassifyPath(const std::string& path);

// Protocol-enum registry: enum name (unqualified) -> enumerator names.
using EnumRegistry = std::map<std::string, std::vector<std::string>>;

// ---------------------------------------------------------------------------
// Cross-translation-unit symbol index (pass 1)
// ---------------------------------------------------------------------------

// One thread-discipline-annotated member of a class.
struct MemberAnn {
  std::string guarded_by;      // mutex member name, if guarded
  bool lane_confined = false;  // per-lane slot vector
  bool shared_atomic = false;  // cross-thread atomic
  bool decl_atomic = false;    // declaration statement mentions `atomic`
  int line = 0;                // declaration line
};

struct ClassInfo {
  std::string file;  // file that declared the class body
  int line = 0;
  std::map<std::string, MemberAnn> members;  // annotated members only
};

// A function declared in a src/ header (R9).
struct FuncDecl {
  std::string name;   // unqualified
  std::string owner;  // enclosing class, empty at namespace scope
  std::string file;
  int line = 0;
  bool allowed = false;  // under sdrlint:allow(R9 <reason>)
};

struct SymbolIndex {
  EnumRegistry enums;
  std::map<std::string, ClassInfo> classes;  // class name -> annotations
  std::vector<FuncDecl> src_functions;       // R9 candidates
  std::set<std::string> live_references;     // names production code uses
};

// Pass 1 over one file: protocol enums, annotated members, and R9's
// declarations and references.
void IndexSource(const std::string& path, const std::string& src,
                 SymbolIndex& index);

// R9 over a finished index: every src/ header function whose name no
// production file references, unless allowed with a reason.
std::vector<Finding> CheckReachability(const SymbolIndex& index);

// Pass 2 over one file: runs all applicable per-file rules.
std::vector<Finding> AnalyzeSource(const std::string& path,
                                   const std::string& src,
                                   const FileClass& fc,
                                   const SymbolIndex& index);

// ---------------------------------------------------------------------------
// Baseline and JSON report
// ---------------------------------------------------------------------------

// Stable identity of a finding across checkouts: "Rn|repo-path|message"
// with the path normalized to start at src/, tools/, tests/, bench/,
// examples/ or perfbench/ and quotes/backslashes in the message
// flattened. Line numbers are deliberately excluded so unrelated edits
// above a baselined finding do not break the gate.
std::string FindingKey(const Finding& f);

// Path normalization used by FindingKey (exposed for tests).
std::string NormalizeRepoPath(const std::string& path);

// Baseline: finding key -> count. Parses tools/lint/baseline.json (written
// by --update_baseline); returns false on unreadable/malformed input.
bool LoadBaseline(const std::string& path, std::map<std::string, int>* out);

// Serializes a baseline for the given findings (sorted keys, duplicate
// keys kept as repeated entries).
std::string BaselineToJson(const std::vector<Finding>& findings);

// Splits findings into fresh (beyond the baseline's count for their key)
// and suppressed; `fixed` receives baseline keys whose count exceeds what
// the current run produced (stale entries to delete from the file).
struct BaselineDiff {
  std::vector<Finding> fresh;
  std::vector<Finding> suppressed;
  std::vector<std::string> fixed;
};
BaselineDiff DiffAgainstBaseline(const std::vector<Finding>& findings,
                                 const std::map<std::string, int>& baseline);

// Machine-readable report: files scanned, findings with status, per-rule
// counts, baseline summary. Sorted-key JSON, byte-stable across runs.
std::string ReportJson(size_t files_scanned,
                       const std::vector<Finding>& findings,
                       const BaselineDiff* diff);

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

// Recursively collects .h/.cc files under each path (files are taken as
// given), sorted for deterministic output.
std::vector<std::string> CollectFiles(const std::vector<std::string>& paths);

struct RunOptions {
  std::string baseline_path;   // compare findings against this baseline
  std::string json_path;       // write the JSON report here
  bool update_baseline = false;  // rewrite baseline_path from this run
};

// Runs the two-pass lint over the given files/directories; prints findings
// gcc-style ("file:line: [Rn] message") to stdout. Returns the number of
// findings that fail the gate: all of them without a baseline, only fresh
// ones (plus baseline I/O errors) with one.
int RunTool(const std::vector<std::string>& paths);
int RunTool(const std::vector<std::string>& paths, const RunOptions& opts);

}  // namespace sdr::lint

#endif  // SDR_TOOLS_LINT_LINT_H_
