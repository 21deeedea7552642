// sdrtrace — offline analysis of a binary trace produced by
// `sdrsim --trace_out=<file>` (or any tool that calls EncodeTrace).
//
// Examples:
//   # what happened, who was involved, where did time go
//   ./build/tools/sdrtrace run.sdrt --summary
//
//   # follow one read's causal chain: client -> slave -> auditor -> master
//   ./build/tools/sdrtrace run.sdrt --follow 0x800000001
//
//   # the ten slowest reads, with their trace ids
//   ./build/tools/sdrtrace run.sdrt --slowest 10
//
//   # every exclusion verdict plus the evidence chain that produced it
//   ./build/tools/sdrtrace run.sdrt --verdicts
//
//   # re-export as Chrome trace_event JSON (chrome://tracing, Perfetto)
//   ./build/tools/sdrtrace run.sdrt --chrome trace.json
//
//   # verify a fork-evidence bundle (sdrsim --evidence_out) offline
//   ./build/tools/sdrtrace evidence.sdrb --evidence
#include <cstdio>
#include <string>

#include "src/forkcheck/fork.h"
#include "src/trace/export.h"
#include "src/trace/query.h"
#include "src/util/file.h"
#include "src/util/flags.h"

using namespace sdr;

namespace {

const char* SchemeName(SignatureScheme scheme) {
  switch (scheme) {
    case SignatureScheme::kEd25519:
      return "ed25519";
    case SignatureScheme::kHmacSha256:
      return "hmac";
    case SignatureScheme::kNull:
      return "null";
  }
  return "?";
}

// --evidence mode: the positional file is an EvidenceBundle, not a trace.
// The point of the exercise is that this verification needs nothing from
// the run — only the bundle and the content owner's public key inside it.
int VerifyEvidenceBundle(const std::string& path, BytesView raw) {
  auto decoded = EvidenceBundle::Decode(raw);
  if (!decoded.ok()) {
    std::fprintf(stderr, "sdrtrace: %s is not an evidence bundle: %s\n",
                 path.c_str(), decoded.error().message().c_str());
    return 1;
  }
  EvidenceBundle bundle = std::move(decoded).value();
  std::printf("evidence bundle: %zu chain(s), scheme=%s\n",
              bundle.chains.size(), SchemeName(bundle.scheme));
  size_t bad = 0;
  for (size_t i = 0; i < bundle.chains.size(); ++i) {
    const EvidenceChain& chain = bundle.chains[i];
    std::string why;
    bool ok = VerifyEvidenceChain(bundle.scheme, bundle.content_public_key,
                                  chain, &why);
    if (ok) {
      std::printf(
          "  chain %zu: VERIFIED — slave node %u equivocated at version "
          "%llu (heads differ under its own signature)\n",
          i, chain.a.vv.slave,
          static_cast<unsigned long long>(chain.a.vv.content_version));
    } else {
      ++bad;
      std::printf("  chain %zu: FAILED — %s\n", i, why.c_str());
    }
  }
  if (bundle.chains.empty()) {
    std::printf("  (no equivocation evidence was collected)\n");
  }
  std::printf("verdict: %s\n",
              bad == 0 ? "ALL CHAINS VERIFY" : "BUNDLE DOES NOT VERIFY");
  return bad == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.AllowPositional("<trace.sdrt>");
  flags.Define("follow", "",
               "print the causal chain for this trace id (decimal or 0x-hex)")
      .Define("slowest", "0", "rank the N slowest completed reads")
      .Define("verdicts", "false",
              "list exclusion verdicts with their evidence chains")
      .Define("summary", "false",
              "event/name/node/histogram overview of the trace")
      .Define("ids", "false", "list every trace id present")
      .Define("chrome", "",
              "write the trace as Chrome trace_event JSON to this file")
      .Define("evidence", "false",
              "treat the input as a fork-evidence bundle (sdrsim "
              "--evidence_out) and verify every chain offline; exits 3 "
              "if any chain fails");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: sdrtrace <trace.sdrt> [--follow ID] [--slowest N] "
                 "[--verdicts] [--summary] [--ids] [--chrome FILE]\n"
                 "       sdrtrace <bundle.sdrb> --evidence\n");
    return 1;
  }

  Result<std::string> file = ReadFile(flags.positional()[0]);
  if (!file.ok()) {
    std::fprintf(stderr, "sdrtrace: %s\n", file.error().message().c_str());
    return 1;
  }
  const BytesView raw(reinterpret_cast<const uint8_t*>(file->data()),
                      file->size());
  if (flags.GetBool("evidence")) {
    return VerifyEvidenceBundle(flags.positional()[0], raw);
  }
  auto decoded = DecodeTrace(raw);
  if (!decoded.ok()) {
    std::fprintf(stderr, "sdrtrace: %s: %s\n", flags.positional()[0].c_str(),
                 decoded.error().message().c_str());
    return 1;
  }
  TraceData data = std::move(decoded).value();
  TraceQuery query(data);

  bool did_something = false;

  if (flags.GetBool("summary")) {
    std::fputs(query.FormatSummary().c_str(), stdout);
    did_something = true;
  }
  if (!flags.GetString("follow").empty()) {
    TraceId id = kNoTrace;
    if (!ParseTraceId(flags.GetString("follow"), &id)) {
      std::fprintf(stderr, "sdrtrace: bad trace id: %s\n",
                   flags.GetString("follow").c_str());
      return 1;
    }
    std::fputs(query.FormatChain(id).c_str(), stdout);
    did_something = true;
  }
  if (flags.GetInt("slowest") > 0) {
    std::fputs(
        query.FormatSlowest(static_cast<size_t>(flags.GetInt("slowest")))
            .c_str(),
        stdout);
    did_something = true;
  }
  if (flags.GetBool("verdicts")) {
    std::fputs(query.FormatVerdicts().c_str(), stdout);
    did_something = true;
  }
  if (flags.GetBool("ids")) {
    for (TraceId id : query.TraceIds()) {
      std::printf("0x%llx\n", static_cast<unsigned long long>(id));
    }
    did_something = true;
  }
  if (!flags.GetString("chrome").empty()) {
    Status written = WriteFile(flags.GetString("chrome"),
                               ChromeTraceJson(data).Dump() + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "sdrtrace: %s\n", written.error().message().c_str());
      return 1;
    }
    did_something = true;
  }

  if (!did_something) {
    // Bare invocation: the summary is the most useful default.
    std::fputs(query.FormatSummary().c_str(), stdout);
  }
  return 0;
}
