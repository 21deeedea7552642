// Deterministic discrete-event simulator: a virtual clock over the shared
// EventQueue (src/runtime/event_queue.h), the same timer store RealEnv
// fires wall-clock timers from. All protocol timing (keep-alives,
// max_latency freshness windows, audit lag, detection latency) is measured
// in virtual time, so runs are exactly reproducible from a seed.
#ifndef SDR_SRC_SIM_SIMULATOR_H_
#define SDR_SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/runtime/env.h"
#include "src/runtime/event_queue.h"
#include "src/util/inline_function.h"
#include "src/util/rng.h"

namespace sdr {

class TraceSink;

// SimTime, the time constants, and EventId live in src/runtime/env.h (the
// substrate-neutral vocabulary); the simulator is the virtual-time Clock.
class Simulator final : public Clock {
 public:
  explicit Simulator(uint64_t seed) : rng_(seed) {}

  SimTime Now() const override { return now_; }
  Rng& rng() { return rng_; }

  // Schedules `fn` to run at absolute virtual time `t` (clamped to Now()).
  EventId ScheduleAt(SimTime t, InlineFunction<void()> fn) {
    return queue_.Push(std::max(t, now_), std::move(fn));
  }

  // Schedules `fn` to run `delay` from now.
  EventId ScheduleAfter(SimTime delay, InlineFunction<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancels a pending event. Safe to call on already-fired, already-
  // cancelled, or invalid ids (no-op), any number of times.
  void Cancel(EventId id) { queue_.Cancel(id); }

  // Runs the next event, if any. Returns false when the queue is empty.
  bool Step();

  // Runs events until virtual time would exceed `t`; leaves Now() == t.
  void RunUntil(SimTime t);

  // Runs until no events remain (or `max_events` processed, as a runaway
  // guard). Returns the number of events processed.
  size_t RunUntilIdle(size_t max_events = SIZE_MAX);

  size_t pending_events() const { return queue_.size(); }

  // Total events dispatched since construction (perf instrumentation).
  size_t events_processed() const { return events_processed_; }

  // Optional trace sink (owned by the harness, e.g. Cluster). Null when
  // tracing is off — instrumentation sites branch once on this pointer,
  // which is the whole "zero overhead when disabled" story.
  void set_trace(TraceSink* trace) { trace_ = trace; }
  TraceSink* trace() const { return trace_; }

 private:
  void Dispatch(InlineFunction<void()>& fn);

  SimTime now_ = 0;
  EventQueue queue_;
  size_t events_processed_ = 0;
  Rng rng_;
  TraceSink* trace_ = nullptr;
};

}  // namespace sdr

#endif  // SDR_SRC_SIM_SIMULATOR_H_
