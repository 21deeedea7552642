// A single-server FIFO work queue. Servers (slaves, masters, the auditor)
// push jobs with a service time from the CostModel, and completions fire in
// order. Whether that time is charged is the Env's call
// (Env::ModelsServiceTime):
//
//   SimEnv  — each job completes a modelled service time after the server
//             frees up, so utilization, queueing delay and backlog all
//             emerge from job costs in simulated time.
//   RealEnv — the service time is ignored: each job is scheduled at Now()
//             and runs in the event loop's next timer sweep, after the
//             handler that enqueued it returns. The CPU the job spends is
//             its service time.
#ifndef SDR_SRC_CORE_SERVICE_QUEUE_H_
#define SDR_SRC_CORE_SERVICE_QUEUE_H_

#include <cstdint>
#include <deque>

#include "src/runtime/env.h"
#include "src/trace/trace.h"
#include "src/util/inline_function.h"

namespace sdr {

class ServiceQueue {
 public:
  // speed > 1.0 models a faster server (service times divided by speed).
  ServiceQueue(Env* env, double speed = 1.0);

  // Attributes this queue's wait-time samples ("queue_wait_us") to the
  // owning node. Until called (or when the env has no trace sink), no
  // samples are recorded. Under SimEnv a sample is the modelled wait,
  // recorded at enqueue; under RealEnv it is the measured wait from
  // enqueue to the job's start.
  void BindTrace(TraceRole role, uint32_t node) {
    trace_role_ = role;
    trace_node_ = node;
  }

  // Enqueues a job; `done` runs when the server finishes it.
  void Enqueue(SimTime service_time, InlineFunction<void()> done);

  // Jobs accepted but not yet completed.
  size_t depth() const { return pending_.size(); }

 private:
  void RecordWait(SimTime wait);
  // Runs the oldest pending completion.
  void RunFront();

  Env* env_;
  double speed_;
  TraceRole trace_role_ = TraceRole::kNone;
  uint32_t trace_node_ = 0;
  // When the modelled server frees up (SimEnv only).
  SimTime busy_until_ = 0;
  // Completions not yet run, oldest first. Jobs complete in enqueue order
  // on both Envs: SimEnv's completion times strictly increase, and RealEnv
  // schedules each at Now(), where equal times fire in insertion order. So
  // each scheduled event runs the front completion and captures no more
  // than `this` and a time, which fits InlineFunction's inline buffer.
  std::deque<InlineFunction<void()>> pending_;
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_SERVICE_QUEUE_H_
