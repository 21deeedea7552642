// Shared internals of the sdrlint rule engine: annotation tables, token
// cursors, bracket matching, and function/class span discovery. Everything
// here is header-only and lexical; rule passes in analyze.cc,
// concurrency.cc, and index.cc build on these primitives.
#ifndef SDR_TOOLS_LINT_INTERNAL_H_
#define SDR_TOOLS_LINT_INTERNAL_H_

#include <algorithm>
#include <cctype>
#include <cstring>
#include <string>

#include "tools/lint/lint.h"

namespace sdr::lint::internal {

// ---------------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------------

struct LineAnn {
  // One flag per marker word in the annotation grammar: allow(Rn ...),
  // public, secret, protocol-enum, lane_confined, shared_atomic, and
  // guarded_by(mutex_name). (Spelled indirectly here on purpose — a literal
  // marker in this comment would annotate these very members.)
  std::set<std::string> allow;  // rule names from the allow(...) form
  std::set<std::string> allow_reasoned;  // those that also give a reason
  bool is_public = false;
  bool is_secret = false;
  bool protocol_enum = false;
  bool lane_confined = false;
  bool shared_atomic = false;
  std::string guarded_by;
};

// Extracts sdrlint markers from one comment's text.
inline void ParseMarkers(const std::string& text, LineAnn& ann) {
  size_t pos = 0;
  while ((pos = text.find("sdrlint:", pos)) != std::string::npos) {
    size_t word_start = pos + std::strlen("sdrlint:");
    size_t word_end = word_start;
    while (word_end < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[word_end])) ||
            text[word_end] == '-' || text[word_end] == '_')) {
      ++word_end;
    }
    std::string word = text.substr(word_start, word_end - word_start);
    auto paren_arg = [&]() -> std::string {
      if (word_end >= text.size() || text[word_end] != '(') {
        return "";
      }
      size_t close = text.find(')', word_end);
      return close == std::string::npos
                 ? text.substr(word_end + 1)
                 : text.substr(word_end + 1, close - word_end - 1);
    };
    if (word == "secret") {
      ann.is_secret = true;
    } else if (word == "public") {
      ann.is_public = true;
    } else if (word == "protocol-enum") {
      ann.protocol_enum = true;
    } else if (word == "lane_confined") {
      ann.lane_confined = true;
    } else if (word == "shared_atomic") {
      ann.shared_atomic = true;
    } else if (word == "guarded_by") {
      std::string inner = paren_arg();
      // Strip whitespace; the argument is a member mutex name.
      inner.erase(std::remove_if(inner.begin(), inner.end(),
                                 [](unsigned char c) {
                                   return std::isspace(c) != 0;
                                 }),
                  inner.end());
      if (!inner.empty()) {
        ann.guarded_by = inner;
      }
    } else if (word == "allow") {
      std::string inner = paren_arg();
      if (!inner.empty()) {
        // First whitespace-delimited word is the rule; rest is rationale.
        size_t sp = inner.find_first_of(" \t");
        const std::string rule =
            sp == std::string::npos ? inner : inner.substr(0, sp);
        ann.allow.insert(rule);
        if (sp != std::string::npos &&
            inner.find_first_not_of(" \t", sp) != std::string::npos) {
          ann.allow_reasoned.insert(rule);
        }
      }
    }
    pos = word_end;
  }
}

class Annotations {
 public:
  explicit Annotations(const std::vector<Token>& toks) {
    // Raw per-line markers, and which lines hold only comments.
    for (const Token& t : toks) {
      if (t.kind == TokKind::kComment) {
        ParseMarkers(t.text, raw_[t.line]);
        int lines_spanned =
            (int)std::count(t.text.begin(), t.text.end(), '\n');
        comment_only_.insert(t.line);
        last_comment_line_[t.line] = t.line + lines_spanned;
      } else {
        code_lines_.insert(t.line);
      }
    }
    for (int l : code_lines_) {
      comment_only_.erase(l);
    }
  }

  // Annotations governing `line`: markers on the line itself plus markers
  // from an immediately preceding run of comment-only lines.
  LineAnn Effective(int line) const {
    LineAnn out = Get(line);
    int l = line - 1;
    while (comment_only_.count(l) != 0) {
      Merge(out, Get(l));
      --l;
    }
    // A multi-line block comment ending just above also governs this line.
    for (const auto& [start, end] : last_comment_line_) {
      if (comment_only_.count(start) != 0 && end == line - 1 && start < l) {
        Merge(out, Get(start));
      }
    }
    return out;
  }

  bool Allowed(int line, const char* rule) const {
    LineAnn a = Effective(line);
    return a.allow.count(rule) != 0 ||
           (std::strcmp(rule, "R5") == 0 && a.is_public);
  }

 private:
  LineAnn Get(int line) const {
    auto it = raw_.find(line);
    return it == raw_.end() ? LineAnn{} : it->second;
  }
  static void Merge(LineAnn& into, const LineAnn& from) {
    into.allow.insert(from.allow.begin(), from.allow.end());
    into.allow_reasoned.insert(from.allow_reasoned.begin(),
                               from.allow_reasoned.end());
    into.is_public |= from.is_public;
    into.is_secret |= from.is_secret;
    into.protocol_enum |= from.protocol_enum;
    into.lane_confined |= from.lane_confined;
    into.shared_atomic |= from.shared_atomic;
    if (into.guarded_by.empty()) {
      into.guarded_by = from.guarded_by;
    }
  }

  std::map<int, LineAnn> raw_;
  std::map<int, int> last_comment_line_;  // comment start line -> end line
  std::set<int> comment_only_;
  std::set<int> code_lines_;
};

// ---------------------------------------------------------------------------
// Token-stream helpers (comments skipped)
// ---------------------------------------------------------------------------

// Indices of non-comment tokens, in order.
inline std::vector<size_t> CodeIndex(const std::vector<Token>& toks) {
  std::vector<size_t> idx;
  idx.reserve(toks.size());
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kComment) {
      idx.push_back(i);
    }
  }
  return idx;
}

inline bool IsPunct(const Token& t, const char* p) {
  return t.kind == TokKind::kPunct && t.text == p;
}
inline bool IsIdent(const Token& t, const char* name) {
  return t.kind == TokKind::kIdent && t.text == name;
}

// Matching close for the open bracket at code position `open` ("(" / "[" /
// "{" / "<"); returns code-position of the closer, or `end` if unmatched.
// For "<" the search bails out on tokens that cannot appear in a template
// argument list, so comparison operators are not misparsed.
inline size_t MatchForward(const std::vector<Token>& toks,
                           const std::vector<size_t>& code, size_t open,
                           const char* open_p, const char* close_p) {
  int depth = 0;
  const bool angle = std::strcmp(open_p, "<") == 0;
  for (size_t i = open; i < code.size(); ++i) {
    const Token& t = toks[code[i]];
    if (angle) {
      if (IsPunct(t, "<")) {
        ++depth;
      } else if (IsPunct(t, ">")) {
        if (--depth == 0) {
          return i;
        }
      } else if (IsPunct(t, ">>")) {
        depth -= 2;
        if (depth <= 0) {
          return i;
        }
      } else if (t.kind == TokKind::kPunct &&
                 (t.text == ";" || t.text == "{" || t.text == "}")) {
        return code.size();  // not a template argument list after all
      }
      continue;
    }
    if (IsPunct(t, open_p)) {
      ++depth;
    } else if (IsPunct(t, close_p)) {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return code.size();
}

// Matching open bracket for the closer at code position `close`; returns
// code-position of the opener, or code.size() if unmatched.
inline size_t MatchBackward(const std::vector<Token>& toks,
                            const std::vector<size_t>& code, size_t close,
                            const char* open_p, const char* close_p) {
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    const Token& t = toks[code[i]];
    if (IsPunct(t, close_p)) {
      ++depth;
    } else if (IsPunct(t, open_p)) {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return code.size();
}

// Statement bounds around code position `at`: [from, to) delimited by the
// nearest ";", "{", or "}" on either side.
inline void StatementBounds(const std::vector<Token>& toks,
                            const std::vector<size_t>& code, size_t at,
                            size_t* from, size_t* to) {
  size_t a = at;
  while (a > 0) {
    const Token& t = toks[code[a - 1]];
    if (t.kind == TokKind::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      break;
    }
    --a;
  }
  size_t b = at;
  while (b < code.size()) {
    const Token& t = toks[code[b]];
    if (t.kind == TokKind::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      break;
    }
    ++b;
  }
  *from = a;
  *to = b;
}

// Function spans as line ranges, for scoping secret tags and sink checks.
struct FuncSpan {
  int start_line = 0;  // line of the opening "{"
  int end_line = 0;    // line of the matching "}"
  size_t header_code = 0;  // first token of the signature
  size_t open_code = 0;
  size_t close_code = 0;
};

inline std::vector<FuncSpan> FunctionSpans(const std::vector<Token>& toks,
                                           const std::vector<size_t>& code) {
  std::vector<FuncSpan> spans;
  int depth = 0;
  int open_depth = -1;
  FuncSpan cur;
  for (size_t i = 0; i < code.size(); ++i) {
    const Token& t = toks[code[i]];
    if (IsPunct(t, "{")) {
      if (open_depth < 0) {
        // A function body iff a ")" appears among the few preceding tokens
        // before any statement terminator or declaration keyword.
        bool is_func = false;
        size_t back = i;
        for (int steps = 0; steps < 8 && back > 0; ++steps) {
          const Token& p = toks[code[--back]];
          if (IsPunct(p, ")")) {
            is_func = true;
            break;
          }
          if (p.kind == TokKind::kPunct &&
              (p.text == ";" || p.text == "{" || p.text == "}" ||
               p.text == "=")) {
            break;
          }
          if (IsIdent(p, "struct") || IsIdent(p, "class") ||
              IsIdent(p, "enum") || IsIdent(p, "namespace") ||
              IsIdent(p, "union")) {
            break;
          }
        }
        if (is_func) {
          // Header starts after the previous statement/block boundary, so
          // sink detection sees the function's own name (e.g. `Encode`).
          size_t header = i;
          while (header > 0) {
            const Token& p = toks[code[header - 1]];
            if (p.kind == TokKind::kPunct &&
                (p.text == ";" || p.text == "{" || p.text == "}")) {
              break;
            }
            --header;
          }
          open_depth = depth;
          cur = FuncSpan{t.line, t.line, header, i, i};
        }
      }
      ++depth;
    } else if (IsPunct(t, "}")) {
      --depth;
      if (open_depth >= 0 && depth == open_depth) {
        cur.end_line = t.line;
        cur.close_code = i;
        spans.push_back(cur);
        open_depth = -1;
      }
    }
  }
  return spans;
}

inline const FuncSpan* SpanForLine(const std::vector<FuncSpan>& spans,
                                   int line) {
  for (const FuncSpan& s : spans) {
    if (line >= s.start_line && line <= s.end_line) {
      return &s;
    }
  }
  return nullptr;
}

// The span governing a tag written on a function's parameter line: the
// span containing the line, or one opening within a few lines below it.
inline const FuncSpan* SpanForTag(const std::vector<FuncSpan>& spans,
                                  int line) {
  if (const FuncSpan* s = SpanForLine(spans, line)) {
    return s;
  }
  for (const FuncSpan& s : spans) {
    if (s.start_line >= line && s.start_line <= line + 4) {
      return &s;
    }
  }
  return nullptr;
}

// The span whose body contains code position `i` (a call site, not an
// out-of-line definition header). Spans do not nest, so at most one matches.
inline const FuncSpan* SpanForCode(const std::vector<FuncSpan>& spans,
                                   size_t i) {
  for (const FuncSpan& s : spans) {
    if (i > s.open_code && i < s.close_code) {
      return &s;
    }
  }
  return nullptr;
}

// The function's own name: the identifier directly before the parameter
// list's "(" in the header (skipping "~" for destructors). Empty when the
// header does not look like a function signature.
inline std::string SpanFuncName(const std::vector<Token>& toks,
                                const std::vector<size_t>& code,
                                const FuncSpan& s) {
  for (size_t i = s.header_code; i < s.open_code; ++i) {
    if (!IsPunct(toks[code[i]], "(") || i == 0) {
      continue;
    }
    size_t n = i - 1;
    if (n > s.header_code && IsPunct(toks[code[n]], "~")) {
      // operator~ is not a function name; destructors put ~ before it.
      --n;
    }
    if (toks[code[n]].kind == TokKind::kIdent) {
      return toks[code[n]].text;
    }
    return "";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Class spans
// ---------------------------------------------------------------------------

struct ClassSpan {
  std::string name;
  int line = 0;
  size_t intro_code = 0;  // the "struct"/"class" keyword
  size_t open_code = 0;   // "{"
  size_t close_code = 0;  // "}"
};

// All `struct Name { ... }` / `class Name { ... }` bodies, including nested
// ones. Template parameter lists, forward declarations, and `enum class`
// are skipped.
inline std::vector<ClassSpan> ClassSpans(const std::vector<Token>& toks,
                                         const std::vector<size_t>& code) {
  std::vector<ClassSpan> spans;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& t = toks[code[i]];
    if (!IsIdent(t, "struct") && !IsIdent(t, "class")) {
      continue;
    }
    if (i > 0 && IsIdent(toks[code[i - 1]], "enum")) {
      continue;  // enum class
    }
    if (toks[code[i + 1]].kind != TokKind::kIdent) {
      continue;  // anonymous or template parameter
    }
    ClassSpan cs;
    cs.name = toks[code[i + 1]].text;
    cs.line = t.line;
    cs.intro_code = i;
    // Walk the base-clause to the "{"; bail on anything that means this was
    // not a class-head (template parameter, forward declaration, ...).
    size_t j = i + 2;
    bool ok = false;
    while (j < code.size()) {
      const Token& u = toks[code[j]];
      if (IsPunct(u, "{")) {
        ok = true;
        break;
      }
      if (IsPunct(u, "<")) {
        size_t close = MatchForward(toks, code, j, "<", ">");
        if (close == code.size()) {
          break;
        }
        j = close + 1;
        continue;
      }
      if (u.kind == TokKind::kPunct &&
          (u.text == ";" || u.text == "(" || u.text == ")" ||
           u.text == ">" || u.text == "=" || u.text == "}")) {
        break;
      }
      ++j;
    }
    if (!ok) {
      continue;
    }
    cs.open_code = j;
    cs.close_code = MatchForward(toks, code, j, "{", "}");
    if (cs.close_code == code.size()) {
      continue;
    }
    spans.push_back(cs);
  }
  return spans;
}

// Innermost class span whose body contains code position `i`.
inline const ClassSpan* ClassForCode(const std::vector<ClassSpan>& classes,
                                     size_t i) {
  const ClassSpan* best = nullptr;
  for (const ClassSpan& c : classes) {
    if (i > c.open_code && i < c.close_code &&
        (best == nullptr ||
         c.close_code - c.open_code < best->close_code - best->open_code)) {
      best = &c;
    }
  }
  return best;
}

// The class that owns a function span: `Owner::name(...)` out-of-line
// definitions, else the innermost enclosing class body.
inline std::string SpanOwner(const std::vector<Token>& toks,
                             const std::vector<size_t>& code,
                             const FuncSpan& s,
                             const std::vector<ClassSpan>& classes) {
  for (size_t i = s.header_code; i < s.open_code; ++i) {
    if (!IsPunct(toks[code[i]], "(") || i < 2) {
      continue;
    }
    size_t n = i - 1;
    if (n > s.header_code && IsPunct(toks[code[n]], "~")) {
      --n;
    }
    if (toks[code[n]].kind == TokKind::kIdent && n >= 2 &&
        IsPunct(toks[code[n - 1]], "::") &&
        toks[code[n - 2]].kind == TokKind::kIdent) {
      return toks[code[n - 2]].text;
    }
    break;
  }
  if (const ClassSpan* c = ClassForCode(classes, s.open_code)) {
    return c->name;
  }
  return "";
}

inline bool IsTypeish(const std::string& s) {
  static const std::set<std::string> kTypeish = {
      "const",    "constexpr", "static",   "mutable",  "volatile", "register",
      "signed",   "unsigned",  "int",      "char",     "short",    "long",
      "float",    "double",    "bool",     "void",     "auto",     "struct",
      "class",    "enum",      "union",    "typename", "template", "using",
      "namespace", "return",   "if",       "else",     "while",    "for",
      "switch",   "case",      "default",  "break",    "continue", "sizeof",
      "true",     "false",     "nullptr",  "new",      "delete",   "operator",
      "override", "final",     "noexcept", "inline",   "extern",   "this",
  };
  return kTypeish.count(s) != 0;
}

// An all-caps identifier: a macro such as SDR_GUARDED_BY(mu_) or
// SDR_WIRE_FIELDS(...), which an identifier followed by "(" must not be
// mistaken for a method or a call.
inline bool IsMacroName(const std::string& s) {
  bool has_alpha = false;
  for (char c : s) {
    if (c >= 'a' && c <= 'z') {
      return false;
    }
    if (c >= 'A' && c <= 'Z') {
      has_alpha = true;
    }
  }
  return has_alpha;
}

// ---------------------------------------------------------------------------
// Cross-TU rule passes defined in concurrency.cc, called from AnalyzeSource
// ---------------------------------------------------------------------------

void CheckR6(const std::string& path, const std::vector<Token>& toks,
             const std::vector<size_t>& code, const Annotations& ann,
             const std::vector<FuncSpan>& spans,
             const std::vector<ClassSpan>& classes, const SymbolIndex& index,
             std::vector<Finding>& out);

void CheckR7(const std::string& path, const std::vector<Token>& toks,
             const std::vector<size_t>& code, const Annotations& ann,
             const std::vector<FuncSpan>& spans,
             const std::vector<ClassSpan>& classes,
             std::vector<Finding>& out);

// ---------------------------------------------------------------------------
// R9's half of pass 1, defined in reach.cc, called from IndexSource
// ---------------------------------------------------------------------------

void IndexReachability(const std::string& path, const std::vector<Token>& toks,
                       const std::vector<size_t>& code, const Annotations& ann,
                       const std::vector<FuncSpan>& spans,
                       const std::vector<ClassSpan>& classes,
                       SymbolIndex& index);

}  // namespace sdr::lint::internal

#endif  // SDR_TOOLS_LINT_INTERNAL_H_
