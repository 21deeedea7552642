// Chaos scenarios: a timeline of typed fault-injection events applied to
// node selectors, with a text grammar for the command line and a
// programmatic builder for tests.
//
// Grammar (statements separated by ';'):
//   at <time> crash <sel>
//   at <time> restart <sel>
//   at <time> partition <selA> <selB>
//   at <time> heal <selA> <selB>
//   at <time> heal all
//   at <time> set_link <selA> <selB> [latency=<time>] [jitter=<time>]
//                                    [loss=<p>]
//   at <time> set_behavior <sel> <field>=<value> ...
//   at <time> burst_writes <sel> [count=<n>]
//   at <time> pause_auditor <sel>
//   at <time> resume_auditor <sel>
//
// Times are a number plus a unit: us, ms, s, m ("10s", "1.5s", "250ms").
// Selectors name a role and a pick: slave:3 (index), slaves:* (all),
// slaves:odd / slaves:even, masters:*, auditor:0, clients:*, all, and
// random:k (k distinct random slaves, drawn deterministically per seed).
// set_behavior fields are Slave::Behavior members: lie_probability,
// inconsistent_lie_probability, drop_probability, ignore_updates,
// serve_despite_stale, and the equivocation flags fork_views,
// stale_pledge, split_serve (caught by src/forkcheck/ when
// --fork_check is on).
#ifndef SDR_SRC_CHAOS_SCENARIO_H_
#define SDR_SRC_CHAOS_SCENARIO_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/slave.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/util/result.h"

namespace sdr {

// Which nodes an event applies to, resolved against a live cluster.
struct NodeSelector {
  enum class Role { kSlave, kMaster, kAuditor, kClient, kAll };
  enum class Pick { kIndex, kAll, kOdd, kEven, kRandom };

  Role role = Role::kSlave;
  Pick pick = Pick::kAll;
  // kIndex: the role-local index; kRandom: how many slaves to draw.
  int arg = 0;

  static NodeSelector Everything() { return {Role::kAll, Pick::kAll, 0}; }
  static NodeSelector RandomSlaves(int k) {
    return {Role::kSlave, Pick::kRandom, k};
  }

  std::string ToString() const;
  static Result<NodeSelector> Parse(const std::string& text);

  bool operator==(const NodeSelector&) const = default;
};

// A sparse overlay on Slave::Behavior: only the named fields change.
struct BehaviorPatch {
  std::optional<double> lie_probability;
  std::optional<double> inconsistent_lie_probability;
  std::optional<double> drop_probability;
  std::optional<bool> ignore_updates;
  std::optional<bool> serve_despite_stale;
  std::optional<bool> fork_views;
  std::optional<bool> stale_pledge;
  std::optional<bool> split_serve;

  void ApplyTo(Slave::Behavior& behavior) const;
  bool empty() const;
  std::string ToString() const;  // "k=v k=v" in canonical field order

  bool operator==(const BehaviorPatch&) const = default;
};

struct ChaosEvent {
  // sdrlint:protocol-enum — fault kinds; every dispatcher must name them all.
  enum class Type {
    kCrash,
    kRestart,
    kPartition,
    kHeal,
    kHealAll,
    kSetLink,
    kSetBehavior,
    kBurstWrites,
    kPauseAuditor,
    kResumeAuditor,
  };

  SimTime at = 0;
  Type type = Type::kCrash;
  NodeSelector a;       // primary selector (unused by kHealAll)
  NodeSelector b;       // second endpoint for partition / heal / set_link
  LinkModel link;       // kSetLink
  BehaviorPatch patch;  // kSetBehavior
  int count = 1;        // kBurstWrites

  std::string ToString() const;  // one parseable statement, canonical form

  bool operator==(const ChaosEvent&) const = default;
};

struct Scenario {
  std::vector<ChaosEvent> events;  // sorted by time (stable on ties)

  bool empty() const { return events.empty(); }
  // "; "-joined canonical statements; ParseScenario round-trips it.
  std::string ToString() const;

  bool operator==(const Scenario&) const = default;
};

// Parses the grammar above. Statements may appear out of time order; the
// returned scenario is sorted. Errors name the offending statement.
Result<Scenario> ParseScenario(const std::string& text);

// "10s" / "250ms" / "1.5s" — the canonical rendering ParseScenario accepts.
std::string FormatSimTime(SimTime t);
Result<SimTime> ParseSimTime(const std::string& text);

}  // namespace sdr

#endif  // SDR_SRC_CHAOS_SCENARIO_H_
