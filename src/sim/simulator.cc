#include "src/sim/simulator.h"

#include <algorithm>

#include "src/trace/trace.h"

namespace sdr {

void Simulator::Dispatch(InlineFunction<void()>& fn) {
  ++events_processed_;
  if (trace_ != nullptr && trace_->sim_spans()) {
    // Event-loop span: the payload is the pending-event count, a cheap
    // live gauge of queue depth on the timeline.
    trace_->SpanBegin(TraceRole::kSim, 0, "sim.event", kNoTrace,
                      static_cast<int64_t>(pending_events()));
    fn();
    trace_->SpanEnd(TraceRole::kSim, 0, "sim.event");
    return;
  }
  fn();
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  now_ = queue_.next_time();
  InlineFunction<void()> fn = queue_.Pop();
  Dispatch(fn);
  return true;
}

void Simulator::RunUntil(SimTime t) {
  while (!queue_.empty() && queue_.next_time() <= t) {
    now_ = queue_.next_time();
    InlineFunction<void()> fn = queue_.Pop();
    Dispatch(fn);
  }
  now_ = std::max(now_, t);
}

size_t Simulator::RunUntilIdle(size_t max_events) {
  size_t n = 0;
  while (n < max_events && Step()) {
    ++n;
  }
  return n;
}

}  // namespace sdr
