// SimEnv: the Env implementation over the deterministic simulator. A thin,
// per-node adapter — every call forwards to the exact Simulator/Network
// primitive the role code used to invoke directly, in the same order with
// the same arguments, so a port from `sim()`/`network()` to `env()` is
// byte-identical under the same seed.
#ifndef SDR_SRC_RUNTIME_SIM_ENV_H_
#define SDR_SRC_RUNTIME_SIM_ENV_H_

#include "src/runtime/env.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace sdr {

class SimEnv final : public Env {
 public:
  SimEnv(Simulator* sim, Network* net, NodeId self)
      : sim_(sim), net_(net), self_(self) {}

  // Wires `node` to this env (Network::AddNode calls this).
  void Attach(Node* node) { BindNode(node, self_, this); }

  SimTime Now() const override { return sim_->Now(); }
  EventId ScheduleAt(SimTime t, InlineFunction<void()> fn) override {
    return sim_->ScheduleAt(t, std::move(fn));
  }
  void Cancel(EventId id) override { sim_->Cancel(id); }
  void Send(NodeId to, Payload payload) override;
  Rng& rng() override { return sim_->rng(); }
  TraceSink* trace() const override { return sim_->trace(); }
  bool ModelsServiceTime() const override { return true; }

 private:
  Simulator* sim_;
  Network* net_;
  NodeId self_;
};

}  // namespace sdr

#endif  // SDR_SRC_RUNTIME_SIM_ENV_H_
