#include "src/core/service_queue.h"

#include <algorithm>
#include <cassert>

namespace sdr {

ServiceQueue::ServiceQueue(Env* env, double speed)
    : env_(env), speed_(speed) {
  assert(speed_ > 0);
}

void ServiceQueue::RecordWait(SimTime wait) {
  if (trace_role_ != TraceRole::kNone) {
    if (TraceSink* t = env_->trace()) {
      t->Hist(trace_role_, trace_node_, "queue_wait_us").Record(wait);
    }
  }
}

void ServiceQueue::Enqueue(SimTime service_time, InlineFunction<void()> done) {
  pending_.push_back(std::move(done));
  const SimTime now = env_->Now();
  if (!env_->ModelsServiceTime()) {
    // The job runs when the event loop reaches it, after the handler that
    // enqueued it returns; the CPU it spends is its service time, and its
    // wait is measured from here to its start.
    env_->ScheduleAt(now, [this, now] {
      RecordWait(env_->Now() - now);
      RunFront();
    });
    return;
  }
  SimTime scaled = std::max<SimTime>(
      1, static_cast<SimTime>(static_cast<double>(service_time) / speed_));
  SimTime start = std::max(busy_until_, now);
  RecordWait(start - now);
  busy_until_ = start + scaled;
  env_->ScheduleAt(busy_until_, [this] { RunFront(); });
}

void ServiceQueue::RunFront() {
  InlineFunction<void()> done = std::move(pending_.front());
  pending_.pop_front();
  done();
}

}  // namespace sdr
