#include "src/core/service_queue.h"

#include <algorithm>
#include <cassert>

namespace sdr {

ServiceQueue::ServiceQueue(Env* env, double speed)
    : env_(env), speed_(speed) {
  assert(speed_ > 0);
}

SimTime ServiceQueue::busy_until() const {
  return std::max(busy_until_, env_->Now());
}

void ServiceQueue::Enqueue(SimTime service_time, InlineFunction<void()> done) {
  SimTime scaled = std::max<SimTime>(
      1, static_cast<SimTime>(static_cast<double>(service_time) / speed_));
  SimTime start = busy_until();
  if (trace_role_ != TraceRole::kNone) {
    if (TraceSink* t = env_->trace()) {
      t->Hist(trace_role_, trace_node_, "queue_wait_us")
          .Record(start - env_->Now());
    }
  }
  busy_until_ = start + scaled;
  ++depth_;
  env_->ScheduleAt(busy_until_, [this, done = std::move(done)]() mutable {
    --depth_;
    done();
  });
}

}  // namespace sdr
