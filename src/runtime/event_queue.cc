#include "src/runtime/event_queue.h"

#include <utility>

namespace sdr {

// Moves `entry` into heap_[pos] and updates the slot's position index.
void EventQueue::Place(size_t pos, HeapEntry entry) {
  slots_[entry.slot].heap_pos = static_cast<int32_t>(pos);
  heap_[pos] = std::move(entry);
}

void EventQueue::SiftUp(size_t pos) {
  HeapEntry entry = std::move(heap_[pos]);
  while (pos > 0) {
    size_t parent = (pos - 1) / 2;
    if (!Before(entry, heap_[parent])) {
      break;
    }
    Place(pos, std::move(heap_[parent]));
    pos = parent;
  }
  Place(pos, std::move(entry));
}

void EventQueue::SiftDown(size_t pos) {
  HeapEntry entry = std::move(heap_[pos]);
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Before(heap_[child], entry)) {
      break;
    }
    Place(pos, std::move(heap_[child]));
    pos = child;
  }
  Place(pos, std::move(entry));
}

void EventQueue::Retire(uint32_t slot) {
  if (++slots_[slot].generation == 0) {
    slots_[slot].generation = 1;
  }
  slots_[slot].heap_pos = -1;
  free_slots_.push_back(slot);
}

EventId EventQueue::Push(SimTime t, InlineFunction<void()> fn) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  EventId id = (static_cast<uint64_t>(slots_[slot].generation) << 32) | slot;
  heap_.push_back(HeapEntry{t, next_seq_++, slot, std::move(fn)});
  SiftUp(heap_.size() - 1);
  return id;
}

bool EventQueue::Cancel(EventId id) {
  uint32_t slot = static_cast<uint32_t>(id);
  uint32_t generation = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].generation != generation ||
      slots_[slot].heap_pos < 0) {
    return false;  // never pushed, already fired, or already cancelled
  }
  size_t pos = static_cast<size_t>(slots_[slot].heap_pos);
  Retire(slot);

  size_t last = heap_.size() - 1;
  if (pos != last) {
    Place(pos, std::move(heap_[last]));
    heap_.pop_back();
    // The moved-in entry may need to travel either direction.
    if (pos > 0 && Before(heap_[pos], heap_[(pos - 1) / 2])) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  } else {
    heap_.pop_back();
  }
  return true;
}

InlineFunction<void()> EventQueue::Pop() {
  HeapEntry& top = heap_.front();
  Retire(top.slot);
  InlineFunction<void()> fn = std::move(top.fn);
  size_t last = heap_.size() - 1;
  if (last > 0) {
    heap_[0] = std::move(heap_[last]);
    slots_[heap_[0].slot].heap_pos = 0;
    heap_.pop_back();
    SiftDown(0);
  } else {
    heap_.pop_back();
  }
  return fn;
}

}  // namespace sdr
