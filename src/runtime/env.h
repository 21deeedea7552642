// The execution environment abstraction: everything a protocol role needs
// from the world — a clock, cancellable timers, a message transport, a
// random stream, an optional trace sink — behind one interface, so the
// identical role code runs on two substrates:
//
//   SimEnv  — adapter over the deterministic Simulator/Network pair; every
//             call forwards to the same simulator primitives the roles used
//             to call directly, so behavior is byte-identical and the
//             determinism gates (same-seed replays) are untouched.
//   RealEnv — an epoll-based single-threaded event loop with TCP transport
//             and a monotonic wall clock, for running roles as processes.
//
// Both keep their timers in one EventQueue (src/runtime/event_queue.h), so
// the order timers fire in and what Cancel does are the same on both:
// earliest deadline first, equal deadlines in schedule order, and Cancel
// of a fired, cancelled or unknown id is a no-op.
//
// Time is SimTime microseconds on both substrates: virtual on SimEnv,
// monotonic-since-start on RealEnv. Role code must express all deadlines as
// durations relative to Now() — never as absolute epochs — so the same
// freshness windows work whether Now() started at zero nanoseconds ago or
// the process has been up for a week.
#ifndef SDR_SRC_RUNTIME_ENV_H_
#define SDR_SRC_RUNTIME_ENV_H_

#include <cstdint>

#include "src/util/bytes.h"
#include "src/util/inline_function.h"
#include "src/util/rng.h"

namespace sdr {

class TraceSink;

// Time in microseconds. Virtual under SimEnv, monotonic under RealEnv.
using SimTime = int64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000;
constexpr SimTime kSecond = 1000 * kMillisecond;
constexpr SimTime kMinute = 60 * kSecond;
constexpr SimTime kHour = 60 * kMinute;

// Identifies a scheduled timer/event for cancellation. 0 is never valid.
using EventId = uint64_t;

// Node identity on the transport. Ids start at 1; 0 means "no node".
using NodeId = uint32_t;
constexpr NodeId kInvalidNode = 0;

// Read-only time source. TraceSink and other passive observers take a
// Clock rather than a full Env so they work with the bare Simulator too.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual SimTime Now() const = 0;
};

class Node;

// The per-node execution environment. Each node holds exactly one Env; the
// sender id on Send is implicit (this env's node), which is also the honest
// position for a real transport — a process cannot pick its source address.
class Env : public Clock {
 public:
  // Schedules `fn` at absolute time `t`. A past `t` is clamped to the
  // current instant, so the timer fires after those already due. The
  // returned id stays valid for Cancel until the event fires.
  virtual EventId ScheduleAt(SimTime t, InlineFunction<void()> fn) = 0;

  // Schedules `fn` to run `delay` from now.
  EventId ScheduleAfter(SimTime delay, InlineFunction<void()> fn) {
    return ScheduleAt(Now() + delay, std::move(fn));
  }

  // Cancels a pending event. Safe on already-fired, already-cancelled, or
  // invalid ids (exact no-op), any number of times.
  virtual void Cancel(EventId id) = 0;

  // Sends `payload` from this env's node to `to`. Best-effort on both
  // substrates: the simulator models loss and partitions, the real
  // transport drops messages while a peer connection is down.
  virtual void Send(NodeId to, Payload payload) = 0;

  // The environment's deterministic random stream (shared simulator stream
  // under SimEnv; per-node seeded stream under RealEnv).
  virtual Rng& rng() = 0;

  // Null when tracing is off; instrumentation sites branch once on this.
  virtual TraceSink* trace() const = 0;

  // Asks the environment's event loop to stop. No-op under SimEnv (the
  // harness drives the simulator); under RealEnv this is the shutdown hook
  // sdrnode's signal handlers use.
  virtual void RequestStop() {}

  // Whether a ServiceQueue charges its jobs the CostModel's modelled
  // service time. Only SimEnv does: simulated time passes only when an
  // event says so, so the cost model is what makes servers busy there.
  // Under RealEnv the job's own CPU is its service time, and a job runs
  // as soon as the event loop reaches it.
  virtual bool ModelsServiceTime() const { return false; }

 protected:
  // Substrate wiring: implementations bind themselves to their node.
  static void BindNode(Node* node, NodeId id, Env* env);
};

// Base class for protocol participants. Subclasses implement HandleMessage;
// the harness (Network::StartAll in the simulator, sdrnode in a real
// deployment) calls Start() once the node has an id and an Env.
class Node {
 public:
  virtual ~Node() = default;

  // Called once, after the node has an id and its Env is wired.
  virtual void Start() {}

  // Called on message delivery. `from` is the (unauthenticated) sender id;
  // protocol layers must not trust it for security decisions — that is what
  // the signatures inside the payloads are for. The payload is an immutable
  // shared view; handlers that need to keep it alive copy the cheap Payload
  // handle, not the bytes.
  virtual void HandleMessage(NodeId from, const Payload& payload) = 0;

  NodeId id() const { return id_; }
  bool up() const { return up_; }

 protected:
  Env* env() const { return env_; }

 private:
  friend class Env;
  friend class Network;  // crash/restart toggles up_ in the simulator
  NodeId id_ = kInvalidNode;
  bool up_ = true;
  Env* env_ = nullptr;
};

inline void Env::BindNode(Node* node, NodeId id, Env* env) {
  node->id_ = id;
  node->env_ = env;
}

}  // namespace sdr

#endif  // SDR_SRC_RUNTIME_ENV_H_
