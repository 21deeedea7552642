// A single-server FIFO work queue in environment time. Servers (slaves,
// masters, the auditor) push jobs with a service time from the CostModel;
// completions fire in order once the (simulated or real) CPU gets to them.
// This is what makes load arguments measurable: utilization, queueing
// delay, and backlog all emerge from job costs.
#ifndef SDR_SRC_CORE_SERVICE_QUEUE_H_
#define SDR_SRC_CORE_SERVICE_QUEUE_H_

#include <cstdint>

#include "src/runtime/env.h"
#include "src/trace/trace.h"
#include "src/util/inline_function.h"

namespace sdr {

class ServiceQueue {
 public:
  // speed > 1.0 models a faster server (service times divided by speed).
  ServiceQueue(Env* env, double speed = 1.0);

  // Attributes this queue's wait-time samples ("queue_wait_us") to the
  // owning node. Until called (or when the sim has no trace sink), no
  // samples are recorded.
  void BindTrace(TraceRole role, uint32_t node) {
    trace_role_ = role;
    trace_node_ = node;
  }

  // Enqueues a job; `done` runs when the server finishes it.
  void Enqueue(SimTime service_time, InlineFunction<void()> done);

  // Jobs accepted but not yet completed.
  size_t depth() const { return depth_; }

  // Earliest time a new job could start.
  SimTime busy_until() const;

 private:
  Env* env_;
  double speed_;
  TraceRole trace_role_ = TraceRole::kNone;
  uint32_t trace_node_ = 0;
  SimTime busy_until_ = 0;
  size_t depth_ = 0;
};

}  // namespace sdr

#endif  // SDR_SRC_CORE_SERVICE_QUEUE_H_
