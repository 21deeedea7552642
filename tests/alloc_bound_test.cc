// Heap allocations of a master's checks of one read. A double-check and an
// accusation check of a GET at the head version re-execute the query
// against the live store in place, so each costs a small constant number
// of allocations whatever the store's size; a per-check copy of the store
// costs at least one allocation per entry and fails the bound.
//
// Allocations are counted by replacing the global allocation functions in
// this test binary only, and only while a check runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/core/master.h"
#include "src/core/pledge.h"
#include "src/runtime/deployment.h"
#include "src/sim/network.h"
#include "src/workload/workload.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

// GCC pairs an inlined `new` with this `free` and warns of a mismatch; the
// pair is this file's own malloc and free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace sdr {
namespace {

// Heap allocations made while `fn` runs.
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  g_allocs.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocs.load();
}

class SinkNode : public Node {
 public:
  void HandleMessage(NodeId, const Payload&) override {}
};

struct CheckCost {
  uint64_t double_check = 0;
  uint64_t accusation = 0;
};

// Allocations of one double-check and one (unfounded) accusation of a GET
// pledged at the head, on a master whose store holds `entries` documents.
CheckCost CostOfChecks(size_t entries) {
  Simulator sim(1);
  Network net(&sim, LinkModel{1 * kMillisecond, 0, 0.0});
  DeploymentConfig config;
  config.slaves_per_master = 1;
  config.params.scheme = SignatureScheme::kHmacSha256;
  DeploymentPlan plan = BuildDeployment(config);
  Master master(MasterOptionsFor(plan, 0));
  SinkNode directory, auditor, slave, client;
  // Node ids follow the deployment roster: directory, master, auditor,
  // slave, client.
  net.AddNode(&directory);
  net.AddNode(&master);
  net.AddNode(&auditor);
  net.AddNode(&slave);
  net.AddNode(&client);
  master.AddSlave(plan.slave_certs[0]);
  DocumentStore store;
  for (size_t i = 0; i < entries; ++i) {
    store.Apply(WriteOp::Put(ItemKey(i), std::string(40, 'd')));
  }
  master.SetBaseContent(store);
  net.StartAll();
  sim.RunUntil(10 * kMillisecond);

  const Query query = Query::Get(ItemKey(entries / 2));
  QueryExecutor executor;
  const Bytes sha1 = executor.Execute(store, query)->result.Sha1Digest();
  const Pledge pledge = MakePledge(
      Signer(plan.slave_keys[0]), slave.id(), query, sha1,
      MakeVersionToken(Signer(plan.master_keys[0]), master.id(),
                       master.version(), sim.Now()));
  DoubleCheckRequest dc;
  dc.pledge = pledge;
  const Payload dc_frame = EncodeTyped(MsgType::kDoubleCheckRequest, dc);
  Accusation accusation;
  accusation.pledge = pledge;
  const Payload accusation_frame =
      EncodeTyped(MsgType::kAccusation, accusation);

  CheckCost cost;
  cost.double_check = CountAllocations(
      [&] { master.HandleMessage(client.id(), dc_frame); });
  sim.RunUntil(sim.Now() + 10 * kMillisecond);
  EXPECT_EQ(master.metrics().double_checks_served, 1u);
  EXPECT_EQ(master.metrics().double_check_lies_found, 0u);
  // The pledge's signatures are in the verify cache after a first look.
  master.HandleMessage(auditor.id(), accusation_frame);
  cost.accusation = CountAllocations(
      [&] { master.HandleMessage(auditor.id(), accusation_frame); });
  EXPECT_EQ(master.metrics().accusations_unfounded, 2u);
  return cost;
}

// Decoding the request, executing the GET, hashing and queueing the reply
// take about twenty allocations (a double-check) or ten (an accusation); a
// copy of a 10,000-entry store takes 20,000.
constexpr uint64_t kMaxAllocationsPerCheck = 32;

TEST(AllocBoundTest, MasterChecksAtTheHeadCostNoStoreCopy) {
  for (size_t entries : {100, 10000}) {
    const CheckCost cost = CostOfChecks(entries);
    EXPECT_LE(cost.double_check, kMaxAllocationsPerCheck) << entries;
    EXPECT_LE(cost.accusation, kMaxAllocationsPerCheck) << entries;
  }
}

}  // namespace
}  // namespace sdr
