// R9 — production reachability. Pass 1 records, per file, the functions a
// src/ header declares and the names production code references; once
// every file is indexed, CheckReachability reports the declared functions
// no production file references.
#include "tools/lint/internal.h"
#include "tools/lint/lint.h"

namespace sdr::lint {

using namespace internal;  // NOLINT — rule passes are built on these helpers

namespace {

// Files whose references keep a function live.
bool IsProductionPath(const std::string& repo_path) {
  return repo_path.starts_with("src/") || repo_path.starts_with("tools/") ||
         repo_path.starts_with("examples/") ||
         repo_path.starts_with("perfbench/");
}

// Keywords that can sit before "(" or before a name without declaring it.
bool IsExpressionKeyword(const std::string& s) {
  static const std::set<std::string> kWords = {
      "return", "new",      "delete",    "throw",         "case",
      "else",   "do",       "co_return", "co_yield",      "co_await",
      "sizeof", "alignof",  "decltype",  "static_assert", "alignas",
      "typeid", "noexcept", "defined",   "explicit",      "operator",
  };
  return kWords.count(s) != 0;
}

// True when the identifier at code position i, outside any function body,
// names the function a declaration or definition introduces: it is
// followed by "(" and, past any `Owner::` qualifiers, preceded by a return
// type, i.e. a type name or the last token of one ("*", "&", "&&", ">",
// ">>"), or by the "~" of a destructor. Calls outside bodies (initializers,
// default arguments, base and member initializers) follow "=", "(", ",",
// ":" or "{" instead.
bool IsDeclarator(const std::vector<Token>& toks,
                  const std::vector<size_t>& code, size_t i) {
  if (i + 1 >= code.size() || !IsPunct(toks[code[i + 1]], "(")) {
    return false;
  }
  size_t start = i;
  while (start >= 2 && IsPunct(toks[code[start - 1]], "::") &&
         toks[code[start - 2]].kind == TokKind::kIdent) {
    start -= 2;
  }
  if (start == 0) {
    return false;
  }
  const Token& prev = toks[code[start - 1]];
  if (prev.kind == TokKind::kIdent) {
    return !IsExpressionKeyword(prev.text);
  }
  return prev.kind == TokKind::kPunct &&
         (prev.text == "*" || prev.text == "&" || prev.text == "&&" ||
          prev.text == ">" || prev.text == ">>" || prev.text == "~");
}

}  // namespace

namespace internal {

void IndexReachability(const std::string& path, const std::vector<Token>& toks,
                       const std::vector<size_t>& code, const Annotations& ann,
                       const std::vector<FuncSpan>& spans,
                       const std::vector<ClassSpan>& classes,
                       SymbolIndex& index) {
  const std::string repo_path = NormalizeRepoPath(path);
  if (!IsProductionPath(repo_path)) {
    return;  // neither declares R9 candidates nor keeps one live
  }
  const bool src_header =
      repo_path.starts_with("src/") && repo_path.ends_with(".h");
  std::vector<bool> in_body(code.size(), false);
  for (const FuncSpan& s : spans) {
    for (size_t k = s.open_code + 1; k < s.close_code; ++k) {
      in_body[k] = true;
    }
  }
  for (size_t i = 0; i < code.size(); ++i) {
    const Token& t = toks[code[i]];
    if (t.kind != TokKind::kIdent) {
      continue;
    }
    if (in_body[i] || !IsDeclarator(toks, code, i)) {
      index.live_references.insert(t.text);
      continue;
    }
    if (!src_header || IsTypeish(t.text) || IsExpressionKeyword(t.text) ||
        IsMacroName(t.text) || IsPunct(toks[code[i - 1]], "~")) {
      continue;
    }
    const ClassSpan* owner = ClassForCode(classes, i);
    if (owner != nullptr && owner->name == t.text) {
      continue;  // a constructor
    }
    const LineAnn a = ann.Effective(t.line);
    index.src_functions.push_back({t.text, owner ? owner->name : "", path,
                                   t.line, a.allow_reasoned.count("R9") != 0});
  }
}

}  // namespace internal

std::vector<Finding> CheckReachability(const SymbolIndex& index) {
  std::vector<Finding> out;
  for (const FuncDecl& f : index.src_functions) {
    if (f.allowed || index.live_references.count(f.name) != 0) {
      continue;
    }
    const std::string name =
        f.owner.empty() ? f.name : f.owner + "::" + f.name;
    out.push_back({"R9", f.file, f.line,
                   "`" + name +
                       "` is referenced only under tests/ or bench/, or "
                       "nowhere: delete it, move it beside its callers, or "
                       "allow it with a reason"});
  }
  return out;
}

}  // namespace sdr::lint
