// Fixture tests for sdrlint: for each rule, one source that must fire and
// one that must stay clean, plus suppression-comment handling. Fixtures are
// inline strings driven straight through AnalyzeSource, or for the
// repo-wide R9 through IndexSource and CheckReachability.
#include "tools/lint/lint.h"

#include <fstream>

#include <gtest/gtest.h>

namespace sdr::lint {
namespace {

// Two-pass drive, same as the CLI: index the fixture (optionally on top of
// a pre-seeded index, e.g. enums from "another file"), then run the
// per-file rules.
std::vector<Finding> Lint(const std::string& path, const std::string& src,
                          SymbolIndex index = {}) {
  IndexSource(path, src, index);
  return AnalyzeSource(path, src, ClassifyPath(path), index);
}

int CountRule(const std::vector<Finding>& fs, const std::string& rule) {
  int n = 0;
  for (const Finding& f : fs) {
    n += f.rule == rule ? 1 : 0;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

TEST(Lexer, TokenKindsAndLines) {
  auto toks = Tokenize("int x = 42; // note\n\"str\" == y");
  ASSERT_GE(toks.size(), 8u);
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[3].kind, TokKind::kNumber);
  EXPECT_EQ(toks[5].kind, TokKind::kComment);
  EXPECT_EQ(toks[5].text, "// note");
  EXPECT_EQ(toks[6].kind, TokKind::kString);
  EXPECT_EQ(toks[6].line, 2);
  EXPECT_EQ(toks[7].text, "==");  // longest-match punct
}

TEST(Lexer, RawStringsAndBlockComments) {
  auto toks = Tokenize("R\"x(no // comment in here)x\" /* multi\nline */ z");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].kind, TokKind::kString);
  EXPECT_EQ(toks[1].kind, TokKind::kComment);
  EXPECT_EQ(toks[2].line, 2);  // line counting through the block comment
}

// ---------------------------------------------------------------------------
// R1 — determinism
// ---------------------------------------------------------------------------

TEST(R1, FiresOnAmbientRandomnessInCore) {
  auto fs = Lint("src/core/foo.cc",
                "#include <random>\n"
                "int f() { std::random_device rd; return time(nullptr); }\n");
  EXPECT_GE(CountRule(fs, "R1"), 3);  // include + random_device + time(
}

TEST(R1, CleanWhenUsingSeededRng) {
  auto fs = Lint("src/core/foo.cc",
                "#include \"src/util/rng.h\"\n"
                "uint64_t f(sdr::Rng& rng) { return rng.Next(); }\n");
  EXPECT_EQ(CountRule(fs, "R1"), 0);
}

TEST(R1, DoesNotApplyOutsideDeterminismDomain) {
  auto fs = Lint("bench/bench_foo.cc",
                "#include <chrono>\nint f() { return rand(); }\n");
  EXPECT_EQ(CountRule(fs, "R1"), 0);
}

TEST(R1, RngImplementationIsExempt) {
  EXPECT_FALSE(ClassifyPath("src/util/rng.cc").r1);
  EXPECT_TRUE(ClassifyPath("src/core/master.cc").r1);
}

TEST(R1, SuppressedByAllow) {
  auto fs = Lint("src/core/foo.cc",
                "int f() {\n"
                "  return time(nullptr);  // sdrlint:allow(R1 wall clock ok)\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R1"), 0);
}

TEST(R1, RealTransportRuntimeDomainIsExempt) {
  // src/runtime/ and the deployment tools own real clocks and sockets by
  // design; R1 must not fire there.
  EXPECT_FALSE(ClassifyPath("src/runtime/real_env.cc").r1);
  EXPECT_FALSE(ClassifyPath("src/runtime/deployment.cc").r1);
  EXPECT_FALSE(ClassifyPath("tools/sdrnode.cc").r1);
  EXPECT_FALSE(ClassifyPath("tools/sdrcluster.cc").r1);
  auto fs = Lint("src/runtime/real_env.cc",
                 "#include <sys/epoll.h>\n"
                 "#include <ctime>\n"
                 "int64_t NowUs() {\n"
                 "  timespec ts;\n"
                 "  clock_gettime(CLOCK_MONOTONIC, &ts);\n"
                 "  return ts.tv_sec * 1000000 + ts.tv_nsec / 1000;\n"
                 "}\n");
  EXPECT_EQ(CountRule(fs, "R1"), 0);
}

TEST(R1, RoleCodeMustReachClocksAndSocketsThroughEnv) {
  // The inverse direction: the same real-clock/socket code inside the
  // protocol core is a violation — roles get time from Env::Now() and
  // transport from Env::Send().
  auto fs = Lint("src/core/slave.cc",
                 "#include <sys/epoll.h>\n"
                 "int64_t NowUs() {\n"
                 "  timespec ts;\n"
                 "  clock_gettime(CLOCK_MONOTONIC, &ts);\n"
                 "  nanosleep(&ts, nullptr);\n"
                 "  return ts.tv_sec;\n"
                 "}\n");
  // epoll include + clock_gettime + nanosleep.
  EXPECT_GE(CountRule(fs, "R1"), 3);
}

TEST(R1, IdentInCommentOrStringDoesNotCount) {
  auto fs = Lint("src/core/foo.cc",
                "// rand() would be bad here\n"
                "const char* k = \"rand\";\n");
  EXPECT_EQ(CountRule(fs, "R1"), 0);
}

// ---------------------------------------------------------------------------
// R2 — ordered output
// ---------------------------------------------------------------------------

TEST(R2, FiresOnUnorderedIterationFeedingASink) {
  auto fs = Lint("src/core/foo.cc",
                "#include <unordered_map>\n"
                "void Dump(const std::unordered_map<int, int>& m) {\n"
                "  for (const auto& [k, v] : m) {\n"
                "    printf(\"%d %d\\n\", k, v);\n"
                "  }\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R2"), 1);
}

TEST(R2, CleanWithoutASinkInTheFunction) {
  auto fs = Lint("src/core/foo.cc",
                "int Sum(const std::unordered_map<int, int>& m) {\n"
                "  int s = 0;\n"
                "  for (const auto& [k, v] : m) { s += v; }\n"
                "  return s;\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R2"), 0);
}

TEST(R2, FiresOnExplicitBeginInSerializer) {
  auto fs = Lint("src/core/foo.cc",
                "void Encode(std::unordered_set<int>& s, Buf& out) {\n"
                "  for (auto it = s.begin(); it != s.end(); ++it) {\n"
                "    out.PutU32(*it);\n"
                "  }\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R2"), 1);
}

TEST(R2, SortedMapIsClean) {
  auto fs = Lint("src/core/foo.cc",
                "void Dump(const std::map<int, int>& m) {\n"
                "  for (const auto& [k, v] : m) { printf(\"%d\\n\", v); }\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R2"), 0);
}

TEST(R2, SuppressedByAllow) {
  auto fs = Lint("src/core/foo.cc",
                "void Dump(std::unordered_map<int, int>& m) {\n"
                "  // sdrlint:allow(R2 order-insensitive aggregation)\n"
                "  for (const auto& [k, v] : m) { printf(\"%d\\n\", v); }\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R2"), 0);
}

TEST(R2, FiresOnUnorderedIterationFeedingTraceSerialization) {
  // Trace exporters are byte-stable artifacts: unordered iteration ahead
  // of EncodeTrace / ChromeTraceJson is a determinism bug.
  auto fs = Lint("src/trace/foo.cc",
                "#include <unordered_map>\n"
                "Bytes Export(const std::unordered_map<int, Hist>& hists) {\n"
                "  TraceData data;\n"
                "  for (const auto& [k, v] : hists) {\n"
                "    data.Add(k, v);\n"
                "  }\n"
                "  return EncodeTrace(data);\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R2"), 1);
}

TEST(R2, TraceDomainIsCoveredByR1Too) {
  // src/trace/ is part of the determinism domain: ambient time or
  // randomness in trace code would skew the byte-stable artifacts.
  auto fs = Lint("src/trace/foo.cc",
                "uint64_t Stamp() { return rand(); }\n");
  EXPECT_EQ(CountRule(fs, "R1"), 1);
}

// ---------------------------------------------------------------------------
// R3 — protocol-enum switch exhaustiveness
// ---------------------------------------------------------------------------

constexpr const char* kEnumDecl =
    "// sdrlint:protocol-enum\n"
    "enum class MsgKind : uint8_t { kRead = 1, kWrite, kAudit };\n";

TEST(R3, FiresOnDefaultInProtocolSwitch) {
  auto fs = Lint("src/core/foo.cc",
                std::string(kEnumDecl) +
                    "void f(MsgKind k) {\n"
                    "  switch (k) {\n"
                    "    case MsgKind::kRead: break;\n"
                    "    case MsgKind::kWrite: break;\n"
                    "    case MsgKind::kAudit: break;\n"
                    "    default: break;\n"
                    "  }\n"
                    "}\n");
  EXPECT_EQ(CountRule(fs, "R3"), 1);
}

TEST(R3, FiresOnMissingEnumerator) {
  auto fs = Lint("src/core/foo.cc",
                std::string(kEnumDecl) +
                    "void f(MsgKind k) {\n"
                    "  switch (k) {\n"
                    "    case MsgKind::kRead: break;\n"
                    "    case MsgKind::kWrite: break;\n"
                    "  }\n"
                    "}\n");
  ASSERT_EQ(CountRule(fs, "R3"), 1);
  for (const Finding& f : fs) {
    if (f.rule == "R3") {
      EXPECT_NE(f.message.find("kAudit"), std::string::npos);
    }
  }
}

TEST(R3, CleanWhenExhaustiveWithoutDefault) {
  auto fs = Lint("src/core/foo.cc",
                std::string(kEnumDecl) +
                    "void f(MsgKind k) {\n"
                    "  switch (k) {\n"
                    "    case MsgKind::kRead: break;\n"
                    "    case MsgKind::kWrite: break;\n"
                    "    case MsgKind::kAudit: break;\n"
                    "  }\n"
                    "}\n");
  EXPECT_EQ(CountRule(fs, "R3"), 0);
}

TEST(R3, UnannotatedEnumIsIgnored) {
  auto fs = Lint("src/core/foo.cc",
                "enum class Color { kRed, kBlue };\n"
                "void f(Color c) {\n"
                "  switch (c) { case Color::kRed: break; default: break; }\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R3"), 0);
}

TEST(R3, RegistrySpansFiles) {
  // Enum annotated in a header; the switch lives in another file.
  SymbolIndex index;
  IndexSource("src/core/messages.h", kEnumDecl, index);
  auto fs = Lint("src/core/other.cc",
                "void f(MsgKind k) {\n"
                "  switch (k) { case MsgKind::kRead: default: break; }\n"
                "}\n",
                index);
  EXPECT_GE(CountRule(fs, "R3"), 1);
}

TEST(R3, SuppressedByAllowOnSwitchLine) {
  auto fs = Lint("src/core/foo.cc",
                std::string(kEnumDecl) +
                    "void f(MsgKind k) {\n"
                    "  // sdrlint:allow(R3 partial handler by design)\n"
                    "  switch (k) {\n"
                    "    case MsgKind::kRead: break;\n"
                    "    default: break;\n"
                    "  }\n"
                    "}\n");
  EXPECT_EQ(CountRule(fs, "R3"), 0);
}

// ---------------------------------------------------------------------------
// R4 — one codec
// ---------------------------------------------------------------------------

// A hand-written decoder (the shape the retired R8 compared field by field)
// is a finding wherever it lives outside the codec.
TEST(R4, FiresOnAHandWrittenDecoder) {
  const std::string src =
      "void Ping::Encode(Writer& w) const {\n"
      "  w.U32(seq);\n"
      "  w.Blob(body);\n"
      "}\n"
      "Ping Ping::Decode(Reader& r) {\n"
      "  Ping m;\n"
      "  m.body = r.Blob();\n"
      "  m.seq = r.U32();\n"
      "  return m;\n"
      "}\n";
  for (const char* path : {"src/core/messages.cc",
                           "bench/baselines/merkle_tree.cc",
                           "bench/baselines/state_signing.cc",
                           "src/trace/export.cc", "tools/sdrtrace.cc"}) {
    auto fs = Lint(path, src);
    ASSERT_EQ(CountRule(fs, "R4"), 1) << path;
    EXPECT_EQ(fs[0].line, 5) << path;
  }
}

TEST(R4, FiresOnEveryReaderUse) {
  auto fs = Lint("src/broadcast/total_order.cc",
                 "void Tob::OnMessage(BytesView payload) {\n"
                 "  Reader r(payload);\n"
                 "  Handle(r);\n"
                 "}\n"
                 "void Tob::Handle(Reader& r) { epoch_ = r.U64(); }\n");
  EXPECT_EQ(CountRule(fs, "R4"), 2);
}

TEST(R4, WriterOnlyByteBuildersAreClean) {
  // A hash preimage has no decoder that could drift from it.
  auto fs = Lint("src/core/slave.cc",
                 "Bytes Slave::MemoKey(const Query& q) const {\n"
                 "  Writer w;\n"
                 "  q.EncodeTo(w);\n"
                 "  w.U64(version_);\n"
                 "  return w.Take();\n"
                 "}\n");
  EXPECT_EQ(CountRule(fs, "R4"), 0);
}

TEST(R4, TheCodecItselfIsExempt) {
  const std::string src = "bool Reader::Need(size_t n) { return n > 0; }\n";
  for (const char* path :
       {"src/util/serde.h", "src/util/serde.cc", "/repo/src/util/serde.cc"}) {
    EXPECT_EQ(CountRule(Lint(path, src), "R4"), 0) << path;
  }
  for (const char* path : {"src/util/serde_extra.cc", "src/util/bytes.h"}) {
    EXPECT_EQ(CountRule(Lint(path, src), "R4"), 1) << path;
  }
}

TEST(R4, CommentsStringsAndOtherIdentifiersDoNotCount) {
  auto fs = Lint("src/core/client.cc",
                 "// Reader is the codec's.\n"
                 "const char* kName = \"Reader\";\n"
                 "struct ReaderState { int reader = 0; };\n");
  EXPECT_EQ(CountRule(fs, "R4"), 0);
}

TEST(R4, SuppressedByAllow) {
  auto fs = Lint("tests/fixture.cc",
                 "Reader r(buf);  // sdrlint:allow(R4 a test of Reader)\n");
  EXPECT_EQ(CountRule(fs, "R4"), 0);
}

// ---------------------------------------------------------------------------
// R5 — constant-time discipline
// ---------------------------------------------------------------------------

TEST(R5, FiresOnBranchOverSecret) {
  auto fs = Lint("src/crypto/foo.cc",
                "int f(const uint8_t key[32] /* sdrlint:secret */) {\n"
                "  if (key[0] != 0) { return 1; }\n"
                "  return 0;\n"
                "}\n");
  EXPECT_GE(CountRule(fs, "R5"), 1);
}

TEST(R5, FiresOnSecretArrayIndex) {
  auto fs = Lint("src/crypto/foo.cc",
                "uint8_t table[256];\n"
                "uint8_t f(uint8_t d) {\n"
                "  uint8_t digit = d;  // sdrlint:secret\n"
                "  return table[digit];\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R5"), 1);
}

TEST(R5, FiresOnBareMemcmpInCrypto) {
  auto fs = Lint("src/crypto/foo.cc",
                "bool Eq(const uint8_t* a, const uint8_t* b) {\n"
                "  return memcmp(a, b, 32) == 0;\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R5"), 1);
}

TEST(R5, PublicAnnotationDowngradesMemcmp) {
  auto fs = Lint("src/crypto/foo.cc",
                "bool Eq(const uint8_t* a, const uint8_t* b) {\n"
                "  // sdrlint:public — both encodings are published\n"
                "  return memcmp(a, b, 32) == 0;\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R5"), 0);
}

TEST(R5, SecretScopeEndsWithTheFunction) {
  auto fs = Lint("src/crypto/foo.cc",
                "void g(const uint8_t key[32] /* sdrlint:secret */) {\n"
                "  (void)key;\n"
                "}\n"
                "int h(int key) {\n"
                "  if (key != 0) { return 1; }  // different, public `key`\n"
                "  return 0;\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R5"), 0);
}

TEST(R5, ConstantTimeSelectIsClean) {
  auto fs = Lint("src/crypto/foo.cc",
                "uint8_t Select(const uint8_t t[8], uint8_t d) {\n"
                "  uint8_t digit = d;  // sdrlint:secret\n"
                "  uint8_t out = 0;\n"
                "  for (uint8_t j = 0; j < 8; ++j) {\n"
                "    uint8_t m = (uint8_t)(((uint32_t)(j ^ digit) - 1) >> 31);\n"
                "    out |= (uint8_t)(t[j] & (uint8_t)(0 - m));\n"
                "  }\n"
                "  return out;\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R5"), 0);
}

TEST(R5, AllowSuppressesDesignatedVariableTimeCode) {
  auto fs = Lint("src/crypto/foo.cc",
                "int Ladder(const uint8_t scalar[32] /* sdrlint:secret */) {\n"
                "  // sdrlint:allow(R5 reference ladder, vartime by design)\n"
                "  if (scalar[0] & 1) { return 1; }\n"
                "  return 0;\n"
                "}\n");
  EXPECT_EQ(CountRule(fs, "R5"), 0);
}

// ---------------------------------------------------------------------------
// R6 — thread confinement & lock discipline
// ---------------------------------------------------------------------------

TEST(R6, FiresOnUnguardedMemberAccess) {
  auto fs = Lint("src/util/pool_like.h",
                 "#include <mutex>\n"
                 "class Pool {\n"
                 " public:\n"
                 "  void Bad() { total_ = 1; }\n"
                 "  void Good() {\n"
                 "    std::lock_guard<std::mutex> lock(mu_);\n"
                 "    total_ = 2;\n"
                 "  }\n"
                 " private:\n"
                 "  std::mutex mu_;\n"
                 "  int total_ = 0;  // sdrlint:guarded_by(mu_)\n"
                 "};\n");
  ASSERT_EQ(CountRule(fs, "R6"), 1);
  EXPECT_NE(fs[0].message.find("total_"), std::string::npos);
  EXPECT_NE(fs[0].message.find("mu_"), std::string::npos);
}

TEST(R6, ConstructorInitializationIsExempt) {
  // Before the object escapes its constructor no other thread can hold a
  // reference, so ctor writes need no lock.
  auto fs = Lint("src/util/pool_like.h",
                 "class Pool {\n"
                 " public:\n"
                 "  Pool() { total_ = 7; }\n"
                 " private:\n"
                 "  std::mutex mu_;\n"
                 "  int total_ = 0;  // sdrlint:guarded_by(mu_)\n"
                 "};\n");
  EXPECT_EQ(CountRule(fs, "R6"), 0);
}

TEST(R6, AttributeMacroDoesNotHideTheMember) {
  // The clang -Wthread-safety macro expands to nothing under GCC but its
  // tokens are still in the declaration; the indexer must not mistake
  // `total_ SDR_GUARDED_BY(mu_)` for a method named SDR_GUARDED_BY.
  auto fs = Lint("src/util/pool_like.h",
                 "#include <mutex>\n"
                 "class Pool {\n"
                 " public:\n"
                 "  void Bad() { total_ = 1; }\n"
                 " private:\n"
                 "  std::mutex mu_;\n"
                 "  int total_ SDR_GUARDED_BY(mu_) = 0;  "
                 "// sdrlint:guarded_by(mu_)\n"
                 "};\n");
  EXPECT_EQ(CountRule(fs, "R6"), 1);
}

TEST(R6, LaneConfinedMemberNeedsLaneSubscriptInPoolRegion) {
  auto fs = Lint("src/core/engine_like.cc",
                 "void Engine::Sweep(int n) {\n"
                 "  PoolRun(n, [&](int lane, int i) {\n"
                 "    counts_[lane] += i;\n"
                 "    counts_[0] += i;\n"
                 "  });\n"
                 "}\n"
                 "class Engine {\n"
                 "  // sdrlint:lane_confined\n"
                 "  std::vector<int> counts_;\n"
                 "};\n");
  ASSERT_EQ(CountRule(fs, "R6"), 1);
  EXPECT_NE(fs[0].message.find("lane-confined"), std::string::npos);
}

TEST(R6, SharedAtomicTagRequiresAtomicDeclaration) {
  auto fs = Lint("src/core/engine_like.h",
                 "#include <atomic>\n"
                 "class Engine {\n"
                 " private:\n"
                 "  int not_atomic_ = 0;  // sdrlint:shared_atomic\n"
                 "  std::atomic<int> next_{0};  // sdrlint:shared_atomic\n"
                 "};\n");
  ASSERT_EQ(CountRule(fs, "R6"), 1);
  EXPECT_NE(fs[0].message.find("not_atomic_"), std::string::npos);
}

TEST(R6, SuppressedByAllow) {
  auto fs = Lint("src/util/pool_like.h",
                 "class Pool {\n"
                 " public:\n"
                 "  void Reset() {\n"
                 "    total_ = 0;  // sdrlint:allow(R6 callers are single-"
                 "threaded during reset)\n"
                 "  }\n"
                 " private:\n"
                 "  std::mutex mu_;\n"
                 "  int total_ = 0;  // sdrlint:guarded_by(mu_)\n"
                 "};\n");
  EXPECT_EQ(CountRule(fs, "R6"), 0);
}

// ---------------------------------------------------------------------------
// R7 — BytesView lifetime
// ---------------------------------------------------------------------------

TEST(R7, FiresOnStoredViewWithoutOwner) {
  auto fs = Lint("src/store/cache_like.h",
                 "struct Entry {\n"
                 "  BytesView view;\n"
                 "  int refs = 0;\n"
                 "};\n");
  ASSERT_EQ(CountRule(fs, "R7"), 1);
}

TEST(R7, CleanWhenOwningPayloadIsCoStored) {
  auto fs = Lint("src/store/cache_like.h",
                 "struct Entry {\n"
                 "  Payload owner;\n"
                 "  BytesView view;  // into `owner`\n"
                 "};\n");
  EXPECT_EQ(CountRule(fs, "R7"), 0);
}

TEST(R7, FiresOnContainerOfViews) {
  auto fs = Lint("src/store/batch_like.cc",
                 "void Collect() {\n"
                 "  std::vector<BytesView> parts;\n"
                 "  Fill(parts);\n"
                 "}\n");
  EXPECT_EQ(CountRule(fs, "R7"), 1);
}

TEST(R7, ViewOfTemporaryFires) {
  auto fs = Lint("src/core/frame_like.cc",
                 "void Send(Env* env) {\n"
                 "  Deliver(MakePayload().view());\n"
                 "}\n");
  EXPECT_EQ(CountRule(fs, "R7"), 1);
}

TEST(R7, SliceChainRootedAtNamedValueIsClean) {
  // p.Slice(1).view() points into `p`, which outlives the expression —
  // the canonical read path of the Payload API.
  auto fs = Lint("src/core/frame_like.cc",
                 "void Read(const Payload& p) {\n"
                 "  Consume(p.Slice(1).view());\n"
                 "  Consume(p.view().substr(4));\n"
                 "}\n");
  EXPECT_EQ(CountRule(fs, "R7"), 0);
}

TEST(R7, ReturnOfLocalBackedViewFires) {
  auto fs = Lint("src/core/frame_like.cc",
                 "BytesView Leak() {\n"
                 "  Bytes buf = Build();\n"
                 "  return BytesView(buf.data(), buf.size());\n"
                 "}\n");
  EXPECT_EQ(CountRule(fs, "R7"), 1);
}

TEST(R7, ByRefScheduleCaptureOfViewFires) {
  auto fs = Lint("src/core/frame_like.cc",
                 "void Arm(Env* env) {\n"
                 "  BytesView window = Current();\n"
                 "  env->ScheduleAfter(5, [&] { Consume(window); });\n"
                 "}\n");
  EXPECT_EQ(CountRule(fs, "R7"), 1);
}

TEST(R7, SuppressedByAllow) {
  auto fs = Lint("src/store/cache_like.h",
                 "struct Raw {\n"
                 "  // sdrlint:allow(R7 arena outlives every entry)\n"
                 "  BytesView view;\n"
                 "};\n");
  EXPECT_EQ(CountRule(fs, "R7"), 0);
}

// ---------------------------------------------------------------------------
// R9 — production reachability
// ---------------------------------------------------------------------------

using Files = std::vector<std::pair<std::string, std::string>>;

// R9 as the CLI runs it: index every file, then judge the whole index.
std::vector<Finding> Reach(const Files& files) {
  SymbolIndex index;
  for (const auto& [path, src] : files) {
    IndexSource(path, src, index);
  }
  return CheckReachability(index);
}

constexpr const char* kHelperHeader =
    "namespace sdr {\n"
    "int Helper(int x);\n"
    "}\n";
constexpr const char* kHelperCc =
    "#include \"src/util/helper.h\"\n"
    "namespace sdr {\n"
    "int Helper(int x) { return x + 1; }\n"
    "}\n";
constexpr const char* kHelperTest =
    "TEST(Helper, AddsOne) { EXPECT_EQ(Helper(1), 2); }\n";

TEST(R9, FiresOnAFunctionOnlyTestsCall) {
  auto fs = Reach({{"src/util/helper.h", kHelperHeader},
                   {"src/util/helper.cc", kHelperCc},
                   {"tests/helper_test.cc", kHelperTest},
                   {"bench/bench_helper.cc",
                    "void BM_Helper() { Helper(3); }\n"}});
  ASSERT_EQ(CountRule(fs, "R9"), 1);
  EXPECT_EQ(fs[0].file, "src/util/helper.h");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_NE(fs[0].message.find("`Helper`"), std::string::npos);
}

TEST(R9, FiresOnAMethodNothingCalls) {
  // Out-of-line definitions, qualified or behind a template return type,
  // are not references.
  auto fs = Reach({{"src/store/thing.h",
                    "struct Thing {\n"
                    "  Thing(int v);\n"
                    "  std::vector<int> Rows() const;\n"
                    "  static Thing Make(int v);\n"
                    "  bool operator==(const Thing&) const = default;\n"
                    "  SDR_WIRE_FIELDS(Thing, v)\n"
                    "  int v;\n"
                    "};\n"},
                   {"src/store/thing.cc",
                    "std::vector<int> Thing::Rows() const { return {v}; }\n"
                    "Thing Thing::Make(int v) { return Thing(v); }\n"}});
  ASSERT_EQ(CountRule(fs, "R9"), 2);
  EXPECT_NE(fs[0].message.find("`Thing::Rows`"), std::string::npos);
  EXPECT_NE(fs[1].message.find("`Thing::Make`"), std::string::npos);
}

TEST(R9, SilentWhenToolsExamplesOrPerfbenchCallIt) {
  for (const char* caller : {"tools/sdrsim.cc", "examples/quickstart.cpp",
                             "perfbench/harness.cc"}) {
    auto fs = Reach({{"src/util/helper.h", kHelperHeader},
                     {"src/util/helper.cc", kHelperCc},
                     {"tests/helper_test.cc", kHelperTest},
                     {caller, "int main() { return Helper(0); }\n"}});
    EXPECT_EQ(CountRule(fs, "R9"), 0) << caller;
  }
  // A call in a namespace-scope initializer is a reference too.
  auto fs = Reach({{"src/util/helper.h", kHelperHeader},
                   {"tools/table.cc", "const int kStart = Helper(2);\n"}});
  EXPECT_EQ(CountRule(fs, "R9"), 0);
}

TEST(R9, SilentWhenItsOwnCcCallsIt) {
  auto fs = Reach({{"src/util/helper.h", kHelperHeader},
                   {"src/util/helper.cc",
                    std::string(kHelperCc) +
                        "int Twice(int x) { return Helper(Helper(x)); }\n"},
                   {"tests/helper_test.cc", kHelperTest}});
  EXPECT_EQ(CountRule(fs, "R9"), 0);
}

TEST(R9, SuppressedByAllow) {
  auto allowed = Reach({{"src/util/helper.h",
                         "// sdrlint:allow(R9 tests pin the formula)\n"
                         "int Helper(int x);\n"},
                        {"tests/helper_test.cc", kHelperTest}});
  EXPECT_EQ(CountRule(allowed, "R9"), 0);
  // An allow without a reason does not count.
  auto bare = Reach({{"src/util/helper.h",
                      "int Helper(int x);  // sdrlint:allow(R9)\n"},
                     {"tests/helper_test.cc", kHelperTest}});
  EXPECT_EQ(CountRule(bare, "R9"), 1);
}

TEST(R9, BaselineRatchet) {
  // A baselined finding is suppressed; a second dead function is fresh;
  // once the first gains a production caller its entry reads as fixed.
  const Files first = {{"src/util/helper.h", kHelperHeader},
                       {"tests/helper_test.cc", kHelperTest}};
  std::map<std::string, int> baseline;
  for (const Finding& f : Reach(first)) {
    ++baseline[FindingKey(f)];
  }
  ASSERT_EQ(baseline.size(), 1u);

  Files second = first;
  second[0].second += "int Unused();\n";
  BaselineDiff grown = DiffAgainstBaseline(Reach(second), baseline);
  EXPECT_EQ(grown.suppressed.size(), 1u);
  ASSERT_EQ(grown.fresh.size(), 1u);
  EXPECT_NE(grown.fresh[0].message.find("`Unused`"), std::string::npos);

  Files third = first;
  third.push_back({"tools/main.cc", "int main() { return Helper(0); }\n"});
  BaselineDiff fixed = DiffAgainstBaseline(Reach(third), baseline);
  EXPECT_TRUE(fixed.fresh.empty());
  EXPECT_EQ(fixed.fixed.size(), 1u);
}

// ---------------------------------------------------------------------------
// Baseline and report
// ---------------------------------------------------------------------------

TEST(Baseline, FindingKeyExcludesLinesAndNormalizesPaths) {
  Finding a{"R7", "/home/ci/checkout/src/store/cache.h", 12, "stored view"};
  Finding b{"R7", "src/store/cache.h", 99, "stored view"};
  EXPECT_EQ(FindingKey(a), FindingKey(b));
  EXPECT_EQ(NormalizeRepoPath("/abs/src/x.h"), "src/x.h");
  EXPECT_EQ(NormalizeRepoPath("/abs/perfbench/harness.cc"),
            "perfbench/harness.cc");
  // "src/" must match at a path-component boundary, not mid-word.
  EXPECT_EQ(NormalizeRepoPath("mysrc/x.h"), "mysrc/x.h");
}

TEST(Baseline, RoundTripsThroughJsonFile) {
  std::vector<Finding> fs = {
      {"R6", "src/a.cc", 3, "unguarded"},
      {"R6", "src/a.cc", 9, "unguarded"},  // duplicate key, count 2
      {"R4", "src/b.cc", 1, "hand decoder"},
  };
  const std::string path = testing::TempDir() + "/sdrlint_baseline.json";
  {
    std::ofstream out(path);
    out << BaselineToJson(fs);
  }
  std::map<std::string, int> loaded;
  ASSERT_TRUE(LoadBaseline(path, &loaded));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[FindingKey(fs[0])], 2);
  EXPECT_EQ(loaded[FindingKey(fs[2])], 1);
}

TEST(Baseline, LoadFailsOnMissingFile) {
  std::map<std::string, int> loaded;
  EXPECT_FALSE(LoadBaseline("/nonexistent/baseline.json", &loaded));
}

TEST(Baseline, DiffSplitsFreshSuppressedAndFixed) {
  Finding known{"R6", "src/a.cc", 3, "unguarded"};
  Finding fresh{"R4", "src/b.cc", 1, "hand decoder"};
  std::map<std::string, int> baseline;
  baseline[FindingKey(known)] = 2;  // one was fixed since the baseline
  BaselineDiff diff = DiffAgainstBaseline({known, fresh}, baseline);
  ASSERT_EQ(diff.suppressed.size(), 1u);
  EXPECT_EQ(diff.suppressed[0].rule, "R6");
  ASSERT_EQ(diff.fresh.size(), 1u);
  EXPECT_EQ(diff.fresh[0].rule, "R4");
  ASSERT_EQ(diff.fixed.size(), 1u);
  EXPECT_EQ(diff.fixed[0], FindingKey(known));
}

TEST(Report, JsonCarriesPerRuleCountsAndBaselineStatus) {
  Finding known{"R6", "src/a.cc", 3, "unguarded"};
  Finding fresh{"R4", "src/b.cc", 1, "hand decoder"};
  std::map<std::string, int> baseline;
  baseline[FindingKey(known)] = 1;
  BaselineDiff diff = DiffAgainstBaseline({known, fresh}, baseline);
  std::string json = ReportJson(42, {known, fresh}, &diff);
  EXPECT_NE(json.find("\"files_scanned\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"per_rule\""), std::string::npos);
  EXPECT_NE(json.find("\"R6\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"R4\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"fresh\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"baseline\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Hot-path fixtures: the InlineFunction / Payload idioms introduced by the
// simulator rewrite must stay clean under every rule that covers their
// directories, and the constructs they rely on must not regress into the
// banned lists.
// ---------------------------------------------------------------------------

TEST(HotPath, InlineFunctionIdiomsAreCleanInUtil) {
  // Placement new, launder, and an Ops vtable — the inline_function.h
  // pattern — must not trip any rule in src/util.
  auto fs = Lint("src/util/inline_function.h",
                 "template <typename Fn>\n"
                 "void Store(void* buf, Fn&& f) {\n"
                 "  ::new (buf) Fn(static_cast<Fn&&>(f));\n"
                 "  (*std::launder(reinterpret_cast<Fn*>(buf)))();\n"
                 "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(HotPath, PayloadDeliveryLambdaIsCleanInSimDomain) {
  // The network delivery event: shared Payload moved into an event lambda,
  // inside the determinism domain. Seeded Rng draws are fine; the payload
  // machinery must not look like ambient nondeterminism.
  auto fs = Lint("src/sim/network.cc",
                 "#include \"src/util/bytes.h\"\n"
                 "void Network::Send(NodeId from, NodeId to, Payload p) {\n"
                 "  if (rng_.NextBool(link.drop_probability)) { return; }\n"
                 "  sim_->ScheduleAfter(d, [this, from, to,\n"
                 "                          msg = std::move(p)]() {\n"
                 "    node(to)->HandleMessage(from, msg);\n"
                 "  });\n"
                 "}\n");
  EXPECT_EQ(CountRule(fs, "R1"), 0);
  EXPECT_EQ(CountRule(fs, "R2"), 0);
}

TEST(HotPath, ThreadPrimitivesAllowedInChaosDomain) {
  // The parallel seed sweep uses std::thread/std::mutex inside src/chaos —
  // R1 bans ambient *randomness and clocks*, not threads; each seed's
  // simulation stays seed-deterministic.
  auto fs = Lint("src/chaos/runner.cc",
                 "#include <thread>\n"
                 "#include <mutex>\n"
                 "void Sweep(int jobs) {\n"
                 "  std::mutex mu;\n"
                 "  std::vector<std::thread> workers;\n"
                 "  workers.emplace_back([&] { std::lock_guard<std::mutex> "
                 "l(mu); });\n"
                 "  for (auto& t : workers) { t.join(); }\n"
                 "}\n");
  EXPECT_EQ(CountRule(fs, "R1"), 0);
}

TEST(HotPath, WallClockInChaosDomainStillFires) {
  // The thread allowance must not loosen the clock ban: timing the sweep
  // with a wall clock inside src/chaos is still a determinism violation.
  auto fs = Lint("src/chaos/runner.cc",
                 "#include <chrono>\n"
                 "double Elapsed() { return time(nullptr); }\n");
  EXPECT_GE(CountRule(fs, "R1"), 2);  // include + time(
}

TEST(Classify, DomainsMatchTheRuleCatalogue) {
  EXPECT_TRUE(ClassifyPath("src/crypto/ed25519.cc").r5);
  EXPECT_FALSE(ClassifyPath("src/core/master.cc").r5);
  EXPECT_TRUE(ClassifyPath("src/chaos/runner.cc").r1);
  EXPECT_TRUE(ClassifyPath("src/trace/export.cc").r1);
  EXPECT_FALSE(ClassifyPath("tools/sdrsim.cc").r1);
  EXPECT_TRUE(ClassifyPath("tools/sdrsim.cc").r2);
  EXPECT_TRUE(ClassifyPath("tools/sdrsim.cc").r3);
}

}  // namespace
}  // namespace sdr::lint
