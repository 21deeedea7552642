// Per-file rule passes R1–R5 and the AnalyzeSource dispatcher. Everything
// works over the token stream from lexer.cc plus a per-line annotation
// table extracted from comments; no type information is needed because the
// invariants are lexical by construction (banned identifiers, annotated
// enums, tagged variables). Shared machinery lives in internal.h; the
// rule families R6 and R7 live in concurrency.cc, the cross-TU index in
// index.cc.
#include <algorithm>
#include <cstring>

#include "tools/lint/internal.h"
#include "tools/lint/lint.h"

namespace sdr::lint {

using namespace internal;  // NOLINT — rule passes are built on these helpers

namespace {

// ---------------------------------------------------------------------------
// R1 — determinism
// ---------------------------------------------------------------------------

void CheckR1(const std::string& path, const std::string& src,
             const std::vector<Token>& toks, const std::vector<size_t>& code,
             const Annotations& ann, std::vector<Finding>& out) {
  static const std::set<std::string> kBannedIdents = {
      "rand",          "srand",        "rand_r",
      "random_device", "mt19937",      "mt19937_64",
      "minstd_rand",   "default_random_engine",
      "system_clock",  "steady_clock", "high_resolution_clock",
      "gettimeofday",  "localtime",    "gmtime",
      "getenv",        "setenv",       "secure_getenv",
      "clock_gettime", "clock_getres", "nanosleep",
      "epoll_create1", "epoll_wait",
  };
  for (size_t i = 0; i < code.size(); ++i) {
    const Token& t = toks[code[i]];
    if (t.kind != TokKind::kIdent) {
      continue;
    }
    bool banned = kBannedIdents.count(t.text) != 0;
    if (!banned && (t.text == "time" || t.text == "clock")) {
      banned = i + 1 < code.size() && IsPunct(toks[code[i + 1]], "(");
    }
    if (banned && !ann.Allowed(t.line, "R1")) {
      out.push_back(
          {"R1", path, t.line,
           "nondeterminism source `" + t.text +
               "` outside util/rng; route randomness/time through the "
               "seeded simulator"});
    }
  }
  // Header includes that smuggle ambient nondeterminism in.
  int line_no = 0;
  size_t pos = 0;
  while (pos <= src.size()) {
    size_t eol = src.find('\n', pos);
    std::string line = src.substr(pos, eol == std::string::npos
                                           ? std::string::npos
                                           : eol - pos);
    ++line_no;
    for (const char* hdr : {"<random>", "<chrono>", "<ctime>", "<sys/time.h>",
                            "<sys/epoll.h>", "<sys/socket.h>"}) {
      if (line.find("#include") != std::string::npos &&
          line.find(hdr) != std::string::npos &&
          !ann.Allowed(line_no, "R1")) {
        out.push_back({"R1", path, line_no,
                       std::string("include of ") + hdr +
                           " in a determinism-critical directory"});
      }
    }
    if (eol == std::string::npos) {
      break;
    }
    pos = eol + 1;
  }
}

// ---------------------------------------------------------------------------
// R2 — ordered output
// ---------------------------------------------------------------------------

void CheckR2(const std::string& path, const std::vector<Token>& toks,
             const std::vector<size_t>& code, const Annotations& ann,
             const std::vector<FuncSpan>& spans, std::vector<Finding>& out) {
  // Pass 1: names of unordered containers — direct declarations and
  // `using Alias = std::unordered_...` aliases.
  std::set<std::string> unordered_types = {"unordered_map", "unordered_set",
                                           "unordered_multimap",
                                           "unordered_multiset"};
  std::set<std::string> vars;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < code.size(); ++i) {
      const Token& t = toks[code[i]];
      if (t.kind != TokKind::kIdent || unordered_types.count(t.text) == 0) {
        continue;
      }
      size_t j = i + 1;
      if (j < code.size() && IsPunct(toks[code[j]], "<")) {
        j = MatchForward(toks, code, j, "<", ">");
        if (j == code.size()) {
          continue;
        }
        ++j;
      } else if (t.text == "unordered_map" || t.text == "unordered_set") {
        // Bare alias use (registered in pass 1) — fall through with j = i+1.
      }
      while (j < code.size() &&
             (IsPunct(toks[code[j]], "&") || IsPunct(toks[code[j]], "*") ||
              IsIdent(toks[code[j]], "const"))) {
        ++j;
      }
      if (j >= code.size() || toks[code[j]].kind != TokKind::kIdent ||
          IsTypeish(toks[code[j]].text)) {
        continue;
      }
      const std::string& name = toks[code[j]].text;
      // `using Alias = std::unordered_map<...>` registers a type, not a var.
      bool is_alias = false;
      for (size_t b = i; b > 0 && b + 8 > i; --b) {
        const Token& p = toks[code[b - 1]];
        if (IsIdent(p, "using")) {
          is_alias = true;
          break;
        }
        if (p.kind == TokKind::kPunct &&
            (p.text == ";" || p.text == "{" || p.text == "}")) {
          break;
        }
      }
      if (is_alias) {
        // The alias name precedes the '='; register it as a container type.
        for (size_t b = i; b > 0; --b) {
          if (IsPunct(toks[code[b - 1]], "=") && b >= 2) {
            unordered_types.insert(toks[code[b - 2]].text);
            break;
          }
        }
      } else {
        vars.insert(name);
      }
    }
  }
  if (vars.empty()) {
    return;
  }

  // A function "feeds output" when it mentions a serialization / metrics /
  // logging sink anywhere in its body.
  static const std::set<std::string> kSinks = {
      "SDR_LOG",     "printf",         "fprintf", "snprintf",
      "sprintf",     "Encode",         "EncodeTo", "Serialize",
      "Append",      "Writer",         "JsonWriter", "Json",
      "ToJson",      "ToString",       "Dump",     "Report",
      // Trace serialization: events and histograms feed byte-stable
      // artifacts, so iteration order ahead of these is determinism-bearing.
      "EncodeTrace", "ChromeTraceJson", "Snapshot", "Emit",
  };
  auto span_sink = [&](const FuncSpan* s) -> std::string {
    if (s == nullptr) {
      return "";
    }
    for (size_t i = s->header_code; i <= s->close_code && i < code.size();
         ++i) {
      const Token& t = toks[code[i]];
      if (t.kind == TokKind::kIdent && kSinks.count(t.text) != 0) {
        return t.text;
      }
    }
    return "";
  };

  auto report = [&](int line, const std::string& var) {
    const FuncSpan* s = SpanForLine(spans, line);
    std::string sink = span_sink(s);
    if (sink.empty() || ann.Allowed(line, "R2")) {
      return;
    }
    out.push_back({"R2", path, line,
                   "iteration over unordered container `" + var +
                       "` in a function that feeds `" + sink +
                       "`; hash order is not deterministic — iterate a "
                       "sorted view or use std::map"});
  };

  for (size_t i = 0; i < code.size(); ++i) {
    const Token& t = toks[code[i]];
    // Range-for over a tracked container.
    if (IsIdent(t, "for") && i + 1 < code.size() &&
        IsPunct(toks[code[i + 1]], "(")) {
      size_t close = MatchForward(toks, code, i + 1, "(", ")");
      for (size_t j = i + 2; j < close; ++j) {
        if (IsPunct(toks[code[j]], ":")) {
          for (size_t k = j + 1; k < close; ++k) {
            const Token& e = toks[code[k]];
            if (e.kind == TokKind::kIdent && vars.count(e.text) != 0) {
              report(t.line, e.text);
            }
          }
          break;
        }
      }
    }
    // Explicit iterator walk: var.begin() / var.cbegin() / var.rbegin().
    if (t.kind == TokKind::kIdent && vars.count(t.text) != 0 &&
        i + 2 < code.size() && IsPunct(toks[code[i + 1]], ".") &&
        (IsIdent(toks[code[i + 2]], "begin") ||
         IsIdent(toks[code[i + 2]], "cbegin") ||
         IsIdent(toks[code[i + 2]], "rbegin"))) {
      report(t.line, t.text);
    }
  }
}

// ---------------------------------------------------------------------------
// R3 — protocol-enum switch exhaustiveness
// ---------------------------------------------------------------------------

void CheckR3(const std::string& path, const std::vector<Token>& toks,
             const std::vector<size_t>& code, const Annotations& ann,
             const EnumRegistry& registry, std::vector<Finding>& out) {
  if (registry.empty()) {
    return;
  }
  for (size_t i = 0; i < code.size(); ++i) {
    if (!IsIdent(toks[code[i]], "switch") || i + 1 >= code.size() ||
        !IsPunct(toks[code[i + 1]], "(")) {
      continue;
    }
    size_t cond_close = MatchForward(toks, code, i + 1, "(", ")");
    if (cond_close + 1 >= code.size() ||
        !IsPunct(toks[code[cond_close + 1]], "{")) {
      continue;
    }
    size_t body_open = cond_close + 1;
    size_t body_close = MatchForward(toks, code, body_open, "{", "}");

    // Scan this switch's body at its own nesting level: nested switches are
    // skipped (they are analyzed independently by the outer loop).
    std::set<std::string> labels;
    std::vector<int> default_lines;
    for (size_t k = body_open + 1; k < body_close; ++k) {
      const Token& t = toks[code[k]];
      if (IsIdent(t, "switch") && k + 1 < body_close &&
          IsPunct(toks[code[k + 1]], "(")) {
        size_t inner_cond = MatchForward(toks, code, k + 1, "(", ")");
        if (inner_cond + 1 < body_close &&
            IsPunct(toks[code[inner_cond + 1]], "{")) {
          k = MatchForward(toks, code, inner_cond + 1, "{", "}");
        }
        continue;
      }
      if (IsIdent(t, "default") && k + 1 < body_close &&
          IsPunct(toks[code[k + 1]], ":")) {
        default_lines.push_back(t.line);
      }
      if (IsIdent(t, "case")) {
        // Tokens of the label up to the ":".
        std::vector<size_t> label;
        size_t m = k + 1;
        while (m < body_close && !IsPunct(toks[code[m]], ":")) {
          label.push_back(m);
          ++m;
        }
        // Record both bare enumerators and the Enum::kValue qualified form.
        for (size_t x = 0; x < label.size(); ++x) {
          const Token& lt = toks[code[label[x]]];
          if (lt.kind == TokKind::kIdent) {
            std::string qualifier =
                x >= 2 && IsPunct(toks[code[label[x - 1]]], "::")
                    ? toks[code[label[x - 2]]].text
                    : "";
            labels.insert(qualifier.empty() ? lt.text
                                            : qualifier + "::" + lt.text);
          }
        }
        k = m;
      }
    }

    // Which protocol enum, if any, do the labels reference?
    const std::string* matched_enum = nullptr;
    std::set<std::string> present;
    for (const auto& [ename, values] : registry) {
      std::set<std::string> hits;
      for (const std::string& v : values) {
        if (labels.count(ename + "::" + v) != 0 || labels.count(v) != 0) {
          hits.insert(v);
        }
      }
      if (!hits.empty()) {
        matched_enum = &ename;
        present = hits;
        break;
      }
    }
    if (matched_enum == nullptr) {
      continue;
    }
    const int sw_line = toks[code[i]].line;
    if (ann.Allowed(sw_line, "R3")) {
      continue;
    }
    for (int dl : default_lines) {
      if (!ann.Allowed(dl, "R3")) {
        out.push_back({"R3", path, dl,
                       "`default:` in switch over protocol enum " +
                           *matched_enum +
                           "; list every enumerator so new variants fail "
                           "the lint instead of being silently dropped"});
      }
    }
    std::string missing;
    for (const std::string& v : registry.at(*matched_enum)) {
      if (present.count(v) == 0) {
        missing += missing.empty() ? v : ", " + v;
      }
    }
    if (!missing.empty()) {
      out.push_back({"R3", path, sw_line,
                     "non-exhaustive switch over protocol enum " +
                         *matched_enum + ": missing " + missing});
    }
  }
}

// ---------------------------------------------------------------------------
// R4 — one codec
// ---------------------------------------------------------------------------

// The field-list codec in src/util/serde.{h,cc} is the only code that reads
// wire bytes. Its reader class used anywhere else is a hand-written
// decoder, which can drift from the encoder its type's field list
// generates. Byte builders that only write (hash preimages) have no
// decoder to drift from. The class name is spelled in two pieces so that
// `grep -w` finds it only in the codec.
void CheckR4(const std::string& path, const std::vector<Token>& toks,
             const std::vector<size_t>& code, const Annotations& ann,
             std::vector<Finding>& out) {
  for (const std::string codec : {"src/util/serde.h", "src/util/serde.cc"}) {
    if (path == codec || (path.size() > codec.size() &&
                          path.compare(path.size() - codec.size() - 1,
                                       std::string::npos, "/" + codec) == 0)) {
      return;
    }
  }
  const std::string reader = std::string("Read") + "er";
  for (size_t i : code) {
    const Token& t = toks[i];
    if (IsIdent(t, reader.c_str()) && !ann.Allowed(t.line, "R4")) {
      out.push_back({"R4", path, t.line,
                     "`" + reader +
                         "` outside src/util/serde: decode through the "
                         "type's SDR_WIRE_FIELDS list (Decode, "
                         "WireDecode, WireWellFormed), so no decoder "
                         "can drift from its encoder"});
    }
  }
}

// ---------------------------------------------------------------------------
// R5 — constant-time discipline
// ---------------------------------------------------------------------------

void CheckR5(const std::string& path, const std::vector<Token>& toks,
             const std::vector<size_t>& code, const Annotations& ann,
             const std::vector<FuncSpan>& spans, std::vector<Finding>& out) {
  // Secret tags: names declared on `sdrlint:secret` lines, scoped to the
  // enclosing (or immediately following) function, else file-wide.
  struct SecretScope {
    std::string name;
    int from_line = 0;
    int to_line = 1 << 30;
  };
  std::vector<SecretScope> secrets;
  std::set<int> secret_lines;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kComment) {
      LineAnn a;
      ParseMarkers(t.text, a);
      if (a.is_secret) {
        secret_lines.insert(t.line);
      }
    }
  }
  for (int line : secret_lines) {
    const FuncSpan* span = SpanForTag(spans, line);
    for (size_t i = 0; i < code.size(); ++i) {
      const Token& t = toks[code[i]];
      if (t.line != line || t.kind != TokKind::kIdent ||
          IsTypeish(t.text)) {
        continue;
      }
      if (i + 1 >= code.size()) {
        continue;
      }
      const Token& next = toks[code[i + 1]];
      if (next.kind == TokKind::kPunct &&
          (next.text == "[" || next.text == "=" || next.text == "," ||
           next.text == ";" || next.text == ")")) {
        SecretScope s;
        s.name = t.text;
        s.from_line = line;
        if (span != nullptr) {
          s.to_line = span->end_line;
        }
        secrets.push_back(s);
      }
    }
  }

  auto is_secret_at = [&secrets](const std::string& name, int line) {
    for (const SecretScope& s : secrets) {
      if (s.name == name && line >= s.from_line && line <= s.to_line) {
        return true;
      }
    }
    return false;
  };
  auto range_has_secret = [&](size_t from, size_t to,
                              std::string* which) -> bool {
    for (size_t i = from; i < to && i < code.size(); ++i) {
      const Token& t = toks[code[i]];
      if (t.kind == TokKind::kIdent && is_secret_at(t.text, t.line)) {
        *which = t.text;
        return true;
      }
    }
    return false;
  };

  for (size_t i = 0; i < code.size(); ++i) {
    const Token& t = toks[code[i]];
    std::string which;

    // Raw byte-compare primitives always need an explicit verdict.
    if (t.kind == TokKind::kIdent &&
        (t.text == "memcmp" || t.text == "bcmp") &&
        !ann.Allowed(t.line, "R5")) {
      out.push_back({"R5", path, t.line,
                     "`" + t.text +
                         "` in crypto code leaks via early exit; use "
                         "ConstantTimeEquals or annotate the line "
                         "sdrlint:public"});
      continue;
    }
    if (secrets.empty()) {
      continue;
    }

    // Branch conditions: if / while / switch / for on a secret.
    if (t.kind == TokKind::kIdent &&
        (t.text == "if" || t.text == "while" || t.text == "switch" ||
         t.text == "for") &&
        i + 1 < code.size() && IsPunct(toks[code[i + 1]], "(")) {
      size_t close = MatchForward(toks, code, i + 1, "(", ")");
      if (range_has_secret(i + 2, close, &which) &&
          !ann.Allowed(t.line, "R5")) {
        out.push_back({"R5", path, t.line,
                       "branch on secret-tagged `" + which +
                           "`; control flow must not depend on secrets"});
      }
      continue;
    }

    // ==/!= with a secret operand in the same statement.
    if (t.kind == TokKind::kPunct && (t.text == "==" || t.text == "!=")) {
      size_t from, to;
      StatementBounds(toks, code, i, &from, &to);
      if (range_has_secret(from, to, &which) && !ann.Allowed(t.line, "R5")) {
        out.push_back({"R5", path, t.line,
                       "variable-time comparison involving secret-tagged `" +
                           which + "`; use ConstantTimeEquals or mask "
                                   "arithmetic"});
      }
      continue;
    }

    // Ternary selection on a secret in the same statement.
    if (IsPunct(t, "?")) {
      size_t from, to;
      StatementBounds(toks, code, i, &from, &to);
      if (range_has_secret(from, i, &which) && !ann.Allowed(t.line, "R5")) {
        out.push_back({"R5", path, t.line,
                       "ternary select on secret-tagged `" + which +
                           "`; compiles to a branch on many targets"});
      }
      continue;
    }

    // Array subscript indexed by a secret: a cache-line side channel.
    if (IsPunct(t, "[")) {
      size_t close = MatchForward(toks, code, i, "[", "]");
      if (range_has_secret(i + 1, close, &which) &&
          !ann.Allowed(t.line, "R5")) {
        out.push_back({"R5", path, t.line,
                       "memory index derived from secret-tagged `" + which +
                           "`; the address is observable through the "
                           "cache — use a constant-time full-table select"});
      }
      continue;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

FileClass ClassifyPath(const std::string& path) {
  auto has = [&path](const char* s) {
    return path.find(s) != std::string::npos;
  };
  FileClass fc;
  // The determinism domain is the protocol/simulation core. src/runtime/
  // and tools/ (RealEnv, sdrnode, sdrcluster) are deliberately outside it:
  // that is the real-transport domain, where wall clocks, sockets, and
  // event-loop syscalls are the whole point — role code in src/core may
  // reach time and transport only through the Env interface.
  fc.r1 = (has("src/sim/") || has("src/core/") || has("src/chaos/") ||
           has("src/trace/")) &&
          !has("util/rng");
  fc.r5 = has("src/crypto/");
  return fc;
}

std::vector<Finding> AnalyzeSource(const std::string& path,
                                   const std::string& src,
                                   const FileClass& fc,
                                   const SymbolIndex& index) {
  std::vector<Token> toks = Tokenize(src);
  std::vector<size_t> code = CodeIndex(toks);
  Annotations ann(toks);
  std::vector<FuncSpan> spans = FunctionSpans(toks, code);
  std::vector<ClassSpan> classes = ClassSpans(toks, code);

  std::vector<Finding> out;
  if (fc.r1) {
    CheckR1(path, src, toks, code, ann, out);
  }
  if (fc.r2) {
    CheckR2(path, toks, code, ann, spans, out);
  }
  if (fc.r3) {
    CheckR3(path, toks, code, ann, index.enums, out);
  }
  CheckR4(path, toks, code, ann, out);
  if (fc.r5) {
    CheckR5(path, toks, code, ann, spans, out);
  }
  if (fc.r6) {
    CheckR6(path, toks, code, ann, spans, classes, index, out);
  }
  if (fc.r7) {
    CheckR7(path, toks, code, ann, spans, classes, out);
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) {
      return a.line < b.line;
    }
    if (a.rule != b.rule) {
      return a.rule < b.rule;
    }
    return a.message < b.message;
  });
  return out;
}

}  // namespace sdr::lint
