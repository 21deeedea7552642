// Pass 1 of the two-pass lint: the cross-translation-unit SymbolIndex —
// protocol enums, thread-discipline-annotated members, and (through
// reach.cc) R9's declarations and production references.
#include "tools/lint/internal.h"
#include "tools/lint/lint.h"

namespace sdr::lint {

using namespace internal;  // NOLINT — rule passes are built on these helpers

namespace {

// ---------------------------------------------------------------------------
// Protocol enums
// ---------------------------------------------------------------------------

void CollectEnumsImpl(const std::vector<Token>& toks,
                      const std::vector<size_t>& code, const Annotations& ann,
                      EnumRegistry& registry) {
  for (size_t i = 0; i + 2 < code.size(); ++i) {
    if (!IsIdent(toks[code[i]], "enum")) {
      continue;
    }
    size_t j = i + 1;
    if (IsIdent(toks[code[j]], "class") || IsIdent(toks[code[j]], "struct")) {
      ++j;
    }
    if (toks[code[j]].kind != TokKind::kIdent) {
      continue;
    }
    const std::string name = toks[code[j]].text;
    const int decl_line = toks[code[i]].line;
    if (!ann.Effective(decl_line).protocol_enum) {
      continue;
    }
    // Skip ": underlying_type" to the "{".
    while (j < code.size() && !IsPunct(toks[code[j]], "{") &&
           !IsPunct(toks[code[j]], ";")) {
      ++j;
    }
    if (j >= code.size() || !IsPunct(toks[code[j]], "{")) {
      continue;  // forward declaration
    }
    size_t close = MatchForward(toks, code, j, "{", "}");
    std::vector<std::string> enumerators;
    bool expect_name = true;
    for (size_t k = j + 1; k < close; ++k) {
      const Token& t = toks[code[k]];
      if (expect_name && t.kind == TokKind::kIdent) {
        enumerators.push_back(t.text);
        expect_name = false;
      } else if (IsPunct(t, ",")) {
        expect_name = true;
      }
    }
    registry[name] = enumerators;
  }
}

// ---------------------------------------------------------------------------
// Annotated class members (R6)
// ---------------------------------------------------------------------------

// Name declared by a member statement: the last identifier directly
// followed by ";", "=", "{", or "[" — i.e. the declarator, not a type or
// template argument. Function declarations yield "".
std::string MemberDeclName(const std::vector<Token>& toks,
                           const std::vector<size_t>& code,
                           const std::vector<size_t>& raw_stmt) {
  // Drop attribute-macro invocations (SDR_GUARDED_BY(mu_), ...) so the
  // member name is adjacent to its initializer again.
  std::vector<size_t> stmt;
  for (size_t x = 0; x < raw_stmt.size(); ++x) {
    const Token& t = toks[code[raw_stmt[x]]];
    if (t.kind == TokKind::kIdent && IsMacroName(t.text)) {
      if (x + 1 < raw_stmt.size() &&
          IsPunct(toks[code[raw_stmt[x + 1]]], "(")) {
        int depth = 0;
        for (++x; x < raw_stmt.size(); ++x) {
          const Token& u = toks[code[raw_stmt[x]]];
          if (IsPunct(u, "(")) {
            ++depth;
          } else if (IsPunct(u, ")") && --depth == 0) {
            break;
          }
        }
      }
      continue;  // bare macro (no parens) is dropped too
    }
    stmt.push_back(raw_stmt[x]);
  }
  std::string name;
  for (size_t x = 0; x < stmt.size(); ++x) {
    const Token& t = toks[code[stmt[x]]];
    if (t.kind != TokKind::kIdent || IsTypeish(t.text)) {
      continue;
    }
    if (x + 1 >= stmt.size()) {
      name = t.text;  // statement ends right at the ";"
      break;
    }
    const Token& next = toks[code[stmt[x + 1]]];
    if (IsPunct(next, "(")) {
      return "";  // a method declaration, not a data member
    }
    if (next.kind == TokKind::kPunct &&
        (next.text == "=" || next.text == "{" || next.text == "[")) {
      name = t.text;
    }
  }
  return name;
}

void IndexClassMembers(const std::string& path,
                       const std::vector<Token>& toks,
                       const std::vector<size_t>& code,
                       const Annotations& ann,
                       const std::vector<FuncSpan>& spans,
                       const std::vector<ClassSpan>& classes,
                       SymbolIndex& index) {
  for (const ClassSpan& cs : classes) {
    // Statements at this class's member level: skip method bodies and
    // nested class bodies (nested classes index their own pass).
    std::vector<size_t> stmt;
    for (size_t k = cs.open_code + 1; k < cs.close_code; ++k) {
      // Jump over any function body opening here.
      bool jumped = true;
      while (jumped && k < cs.close_code) {
        jumped = false;
        for (const FuncSpan& fs : spans) {
          if (fs.open_code == k) {
            k = fs.close_code + 1;
            stmt.clear();
            jumped = true;
            break;
          }
        }
        for (const ClassSpan& inner : classes) {
          if (&inner != &cs && inner.open_code == k &&
              inner.open_code > cs.open_code &&
              inner.close_code < cs.close_code) {
            k = inner.close_code + 1;
            stmt.clear();
            jumped = true;
            break;
          }
        }
      }
      if (k >= cs.close_code) {
        break;
      }
      const Token& t = toks[code[k]];
      if (IsPunct(t, ";")) {
        if (!stmt.empty()) {
          const int first_line = toks[code[stmt.front()]].line;
          const int last_line = toks[code[stmt.back()]].line;
          LineAnn a = ann.Effective(first_line);
          if (last_line != first_line) {
            LineAnn b = ann.Effective(last_line);
            a.lane_confined |= b.lane_confined;
            a.shared_atomic |= b.shared_atomic;
            if (a.guarded_by.empty()) {
              a.guarded_by = b.guarded_by;
            }
          }
          if (a.lane_confined || a.shared_atomic || !a.guarded_by.empty()) {
            std::string name = MemberDeclName(toks, code, stmt);
            if (!name.empty()) {
              ClassInfo& ci = index.classes[cs.name];
              if (ci.file.empty()) {
                ci.file = path;
                ci.line = cs.line;
              }
              MemberAnn& m = ci.members[name];
              m.lane_confined |= a.lane_confined;
              m.shared_atomic |= a.shared_atomic;
              if (m.guarded_by.empty()) {
                m.guarded_by = a.guarded_by;
              }
              m.line = first_line;
              for (size_t x : stmt) {
                if (toks[code[x]].kind == TokKind::kIdent &&
                    toks[code[x]].text != name &&
                    toks[code[x]].text.find("atomic") != std::string::npos) {
                  m.decl_atomic = true;
                }
              }
            }
          }
        }
        stmt.clear();
      } else {
        stmt.push_back(k);
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

void IndexSource(const std::string& path, const std::string& src,
                 SymbolIndex& index) {
  std::vector<Token> toks = Tokenize(src);
  std::vector<size_t> code = CodeIndex(toks);
  Annotations ann(toks);
  CollectEnumsImpl(toks, code, ann, index.enums);
  std::vector<FuncSpan> spans = FunctionSpans(toks, code);
  std::vector<ClassSpan> classes = ClassSpans(toks, code);
  IndexClassMembers(path, toks, code, ann, spans, classes, index);
  IndexReachability(path, toks, code, ann, spans, classes, index);
}

}  // namespace sdr::lint
