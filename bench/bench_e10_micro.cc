// E10 — Cost-asymmetry microbenchmarks (real CPU time, google-benchmark).
//
// Paper claim (Section 3.4): the auditor outruns slaves because it skips
// the per-read signature and reply; signing dominates hashing by orders of
// magnitude. These microbenchmarks measure the real costs of every
// primitive on the read path and thereby ground the CostModel constants
// used by the virtual-time experiments.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/core/pledge.h"
#include "src/crypto/ed25519.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha2.h"
#include "src/crypto/sha_kernels.h"
#include "src/merkle/merkle_tree.h"
#include "src/store/executor.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"

namespace sdr {
namespace {

void BM_Sha1(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Sha256(benchmark::State& state) {
  Rng rng(2);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Sha512(benchmark::State& state) {
  Rng rng(3);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(4);
  Bytes key = rng.NextBytes(32);
  Bytes data = rng.NextBytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256);

// HMAC-SHA256 over a real pledge's signed body: the E4 (HMAC) cluster's
// per-pledge signature and verification cost.
void BM_HmacSha256Pledge(benchmark::State& state) {
  Rng rng(14);
  Bytes key = rng.NextBytes(32);
  Signer master(KeyPair::Generate(SignatureScheme::kHmacSha256, rng));
  Signer slave(KeyPair::Generate(SignatureScheme::kHmacSha256, rng));
  Pledge pledge =
      MakePledge(slave, 9, Query::Get("item/00001"),
                 Sha1::Hash(rng.NextBytes(1024)),
                 MakeVersionToken(master, 2, 5, 1000));
  Bytes body = pledge.SignedBody();
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, body));
  }
  state.counters["bytes"] = static_cast<double>(body.size());
}
BENCHMARK(BM_HmacSha256Pledge);

// One compression kernel on a run of whole 64-byte blocks, the way Update
// hands it a message's blocks; one row per kernel and size. The dispatcher
// uses the SHA-NI kernels wherever the CPU has them (sha_kernels.h).
// Sha1Kernel and Sha256Kernel are the same pointer type.
void BM_ShaKernel(benchmark::State& state, sha_internal::Sha256Kernel kernel,
                  bool needs_ni) {
  if (needs_ni && !sha_internal::CpuHasShaNi()) {
    state.SkipWithError("this CPU has no SHA-NI");
    return;
  }
  Rng rng(15);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  uint32_t h[8] = {};  // room for either state
  for (auto _ : state) {
    kernel(h, data.data(), data.size() / 64);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_ShaKernel, sha1_portable, sha_internal::Sha1Portable,
                  false)
    ->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK_CAPTURE(BM_ShaKernel, sha256_portable, sha_internal::Sha256Portable,
                  false)
    ->Arg(64)->Arg(1024)->Arg(16384);
#ifdef SDR_SHA_NI
BENCHMARK_CAPTURE(BM_ShaKernel, sha1_ni, sha_internal::Sha1Ni, true)
    ->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK_CAPTURE(BM_ShaKernel, sha256_ni, sha_internal::Sha256Ni, true)
    ->Arg(64)->Arg(1024)->Arg(16384);
#endif

// Runs the body with the Ed25519 fast path toggled to `fast`, restoring the
// previous setting afterwards. Benchmarks run sequentially, so flipping the
// process-wide flag around one benchmark is safe.
class FastPathGuard {
 public:
  explicit FastPathGuard(bool fast) : saved_(Ed25519FastPathEnabled()) {
    Ed25519SetFastPath(fast);
  }
  ~FastPathGuard() { Ed25519SetFastPath(saved_); }

 private:
  bool saved_;
};

void KeyGenBody(benchmark::State& state, bool fast) {
  FastPathGuard guard(fast);
  Rng rng(5);
  Bytes seed = rng.NextBytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519PublicKey(seed));
  }
}
void BM_Ed25519KeyGen(benchmark::State& state) { KeyGenBody(state, true); }
BENCHMARK(BM_Ed25519KeyGen);
void BM_Ed25519KeyGenNaive(benchmark::State& state) {
  KeyGenBody(state, false);
}
BENCHMARK(BM_Ed25519KeyGenNaive);

void SignBody(benchmark::State& state, bool fast) {
  FastPathGuard guard(fast);
  Rng rng(6);
  Bytes seed = rng.NextBytes(32);
  Bytes msg = rng.NextBytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Sign(seed, msg));
  }
}
void BM_Ed25519Sign(benchmark::State& state) { SignBody(state, true); }
BENCHMARK(BM_Ed25519Sign);
void BM_Ed25519SignNaive(benchmark::State& state) { SignBody(state, false); }
BENCHMARK(BM_Ed25519SignNaive);

// Signing with a pre-expanded key (the Signer's steady state): skips the
// per-call SHA-512 seed expansion and public-key scalar multiplication.
void BM_Ed25519SignExpanded(benchmark::State& state) {
  Rng rng(6);
  Bytes seed = rng.NextBytes(32);
  Ed25519ExpandedKey key = Ed25519ExpandKey(seed);
  Bytes msg = rng.NextBytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519SignExpanded(key, msg));
  }
}
BENCHMARK(BM_Ed25519SignExpanded);

void VerifyBody(benchmark::State& state, bool fast) {
  FastPathGuard guard(fast);
  Rng rng(7);
  Bytes seed = rng.NextBytes(32);
  Bytes pub = Ed25519PublicKey(seed);
  Bytes msg = rng.NextBytes(256);
  Bytes sig = Ed25519Sign(seed, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Verify(pub, msg, sig));
  }
}
void BM_Ed25519Verify(benchmark::State& state) { VerifyBody(state, true); }
BENCHMARK(BM_Ed25519Verify);
void BM_Ed25519VerifyNaive(benchmark::State& state) {
  VerifyBody(state, false);
}
BENCHMARK(BM_Ed25519VerifyNaive);

// Verification against a prepared key: VerifyCache's miss path once the
// key's table exists. Compare with BM_Ed25519Verify.
void BM_Ed25519VerifyPrepared(benchmark::State& state) {
  Rng rng(14);
  Bytes seed = rng.NextBytes(32);
  Bytes msg = rng.NextBytes(256);
  Bytes sig = Ed25519Sign(seed, msg);
  auto key = Ed25519PrepareKey(Ed25519PublicKey(seed));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519VerifyPrepared(*key, msg, sig));
  }
}
BENCHMARK(BM_Ed25519VerifyPrepared);

// The one-off cost of preparing a key: decoding it and building the
// fixed-base table of -A.
void BM_Ed25519PrepareKey(benchmark::State& state) {
  Rng rng(16);
  Bytes pub = Ed25519PublicKey(rng.NextBytes(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519PrepareKey(pub));
  }
}
BENCHMARK(BM_Ed25519PrepareKey);

// The auditor's steady state: thousands of pledges carrying the same master
// version token. A warm VerifyCache answers with one hash-map lookup of the
// exact (key, message, signature) bytes.
void BM_VerifyCacheHit(benchmark::State& state) {
  Rng rng(15);
  Bytes seed = rng.NextBytes(32);
  Bytes pub = Ed25519PublicKey(seed);
  Bytes msg = rng.NextBytes(256);
  Bytes sig = Ed25519Sign(seed, msg);
  VerifyCache cache;
  cache.Verify(SignatureScheme::kEd25519, pub, msg, sig);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Verify(SignatureScheme::kEd25519, pub, msg, sig));
  }
}
BENCHMARK(BM_VerifyCacheHit);

// A VerifyCache miss under a key it has already prepared: the exact-key
// lookup, the prepared-key verification and the insert (which evicts).
void BM_VerifyCacheMiss(benchmark::State& state) {
  Rng rng(17);
  Bytes seed = rng.NextBytes(32);
  Bytes pub = Ed25519PublicKey(seed);
  std::vector<Bytes> msgs, sigs;
  for (int i = 0; i < 64; ++i) {
    msgs.push_back(rng.NextBytes(256));
    sigs.push_back(Ed25519Sign(seed, msgs.back()));
  }
  VerifyCache cache(/*capacity=*/32);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Verify(SignatureScheme::kEd25519, pub, msgs[i], sigs[i]));
    i = (i + 1) % msgs.size();
  }
}
BENCHMARK(BM_VerifyCacheMiss);

// The slave's per-read crypto (hash result + sign pledge) vs the auditor's
// (hash only) — the core asymmetry.
void BM_SlavePerReadCrypto(benchmark::State& state) {
  Rng rng(8);
  KeyPair kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer signer(kp);
  KeyPair master_kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer master(master_kp);
  VersionToken token = MakeVersionToken(master, 2, 5, 1000);
  Bytes result = rng.NextBytes(1024);
  Query query = Query::Get("item/00001");
  for (auto _ : state) {
    Bytes digest = Sha1::Hash(result);
    benchmark::DoNotOptimize(MakePledge(signer, 9, query, digest, token));
  }
}
BENCHMARK(BM_SlavePerReadCrypto);

void BM_AuditorPerReadCrypto(benchmark::State& state) {
  Rng rng(9);
  Bytes result = rng.NextBytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Hash(result));
  }
}
BENCHMARK(BM_AuditorPerReadCrypto);

void BM_ClientVerifyRead(benchmark::State& state) {
  // Client-side acceptance cost: hash + pledge sig + token sig.
  Rng rng(10);
  KeyPair slave_kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  KeyPair master_kp = KeyPair::Generate(SignatureScheme::kEd25519, rng);
  Signer slave(slave_kp);
  Signer master(master_kp);
  VersionToken token = MakeVersionToken(master, 2, 5, 1000);
  Bytes result = rng.NextBytes(1024);
  Bytes digest = Sha1::Hash(result);
  Pledge pledge = MakePledge(slave, 9, Query::Get("k"), digest, token);
  for (auto _ : state) {
    bool ok = Sha1::Hash(result) == pledge.result_sha1 &&
              VerifyPledgeSignature(SignatureScheme::kEd25519,
                                    slave_kp.public_key, pledge) &&
              VerifyVersionToken(SignatureScheme::kEd25519,
                                 master_kp.public_key, pledge.token);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ClientVerifyRead);

// Query execution by cost class, on a 1000-item catalogue.
class ExecFixture : public benchmark::Fixture {
 public:
  void SetUp(const ::benchmark::State&) override {
    if (store.size() == 0) {
      Rng rng(11);
      CorpusConfig config;
      config.n_items = 1000;
      store = BuildCatalogCorpus(config, rng);
    }
  }
  DocumentStore store;
  QueryExecutor exec;
};

BENCHMARK_F(ExecFixture, QueryGet)(benchmark::State& state) {
  Query q = Query::Get(ItemKey(500));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Execute(store, q));
  }
}

BENCHMARK_F(ExecFixture, QueryScan100)(benchmark::State& state) {
  Query q = Query::Scan(ItemKey(100), ItemKey(200));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Execute(store, q));
  }
}

BENCHMARK_F(ExecFixture, QueryGrepAll)(benchmark::State& state) {
  Query q = Query::Grep("widget", "item/", "item0");
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Execute(store, q));
  }
}

BENCHMARK_F(ExecFixture, QuerySumAll)(benchmark::State& state) {
  Query q = Query::Aggregate(QueryKind::kSum, "price/", "price0");
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Execute(store, q));
  }
}

void BM_MerkleBuild(benchmark::State& state) {
  Rng rng(12);
  CorpusConfig config;
  config.n_items = static_cast<size_t>(state.range(0));
  DocumentStore store = BuildCatalogCorpus(config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::Build(store));
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(100)->Arg(1000);

void BM_MerkleProveVerify(benchmark::State& state) {
  Rng rng(13);
  CorpusConfig config;
  config.n_items = 1000;
  DocumentStore store = BuildCatalogCorpus(config, rng);
  MerkleTree tree = MerkleTree::Build(store);
  for (auto _ : state) {
    auto proof = tree.Prove(ItemKey(123));
    benchmark::DoNotOptimize(MerkleTree::VerifyProof(*proof, tree.root()));
  }
}
BENCHMARK(BM_MerkleProveVerify);

}  // namespace
}  // namespace sdr

// BENCHMARK_MAIN, except the run also writes google-benchmark's JSON report
// to BENCH_E10.json unless the caller passes its own --benchmark_out.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) {
      has_out = true;
    }
  }
  static char kOut[] = "--benchmark_out=BENCH_E10.json";
  static char kFormat[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(kOut);
    args.push_back(kFormat);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
