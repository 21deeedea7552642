// The one timer store of both substrates: the Simulator's virtual-time
// events and RealEnv's wall-clock timers. The order timers fire in is part
// of the protocol (freshness windows, keep-alives and audit lag), so its
// rule is written once, here: the earliest time fires first, equal times
// fire in push order, and Cancel of a fired, cancelled or unknown id is a
// no-op. The queue has no clock: callers clamp `t` to their own Now().
//
// An index-tracked binary heap: every pending event owns a slot that
// records its heap position, so Cancel is an O(log n) removal. An EventId
// is (generation << 32 | slot) and never 0. Firing or cancelling an event
// bumps its slot's generation, so the stale id stops matching, and frees
// the slot for the next Push. An id can repeat only after its slot's 32-bit
// generation wraps, 2^32 - 1 reuses later; a stale id kept that long could
// cancel the newer event.
#ifndef SDR_SRC_RUNTIME_EVENT_QUEUE_H_
#define SDR_SRC_RUNTIME_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/runtime/env.h"
#include "src/util/inline_function.h"

namespace sdr {

class EventQueue {
 public:
  // Adds `fn` at time `t`. Returns its id, never 0.
  EventId Push(SimTime t, InlineFunction<void()> fn);

  // Removes a pending event. Returns false, doing nothing, when the id has
  // already fired, was already cancelled, or never existed.
  bool Cancel(EventId id);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Time of the earliest pending event; only valid when !empty().
  SimTime next_time() const { return heap_.front().time; }

  // Removes the earliest pending event, retiring its id, and returns its
  // callback for the caller to run. Only valid when !empty().
  InlineFunction<void()> Pop();

 private:
  struct Slot {
    uint32_t generation = 1;  // bumped on retire; never 0, so id != 0
    int32_t heap_pos = -1;    // -1: not pending
  };
  struct HeapEntry {
    SimTime time;
    uint64_t seq;   // push order; ties at equal time fire in this order
    uint32_t slot;
    InlineFunction<void()> fn;
  };

  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  void Place(size_t pos, HeapEntry entry);
  // Marks `slot` free and bumps its generation so its id is dead.
  void Retire(uint32_t slot);

  uint64_t next_seq_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace sdr

#endif  // SDR_SRC_RUNTIME_EVENT_QUEUE_H_
