// A bounded map from byte-string keys to values that evicts the least
// recently used entry when full. Each key is stored once: the index holds
// views into the list nodes that own the keys, and lookups compare keys in
// full, so distinct keys never share an entry.
//
// Not thread-safe.
#ifndef SDR_SRC_UTIL_LRU_MAP_H_
#define SDR_SRC_UTIL_LRU_MAP_H_

#include <cstddef>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace sdr {

template <typename V>
class LruMap {
 public:
  explicit LruMap(size_t capacity) : capacity_(capacity) {}
  // A copy's index would point into the source's nodes; a move keeps them.
  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;
  LruMap(LruMap&&) = default;
  LruMap& operator=(LruMap&&) = default;

  // The value stored under key, refreshed to most recently used; nullptr
  // when absent.
  V* Find(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return nullptr;
    }
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  // Stores value under key, which must be absent. Returns true when the
  // least recently used entry was evicted to make room. A zero-capacity
  // map stores nothing.
  bool Insert(std::string key, V value) {
    if (capacity_ == 0) {
      return false;
    }
    bool evicted = false;
    if (index_.size() >= capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      evicted = true;
    }
    order_.emplace_front(std::move(key), std::move(value));
    index_.emplace(order_.front().first, order_.begin());
    return evicted;
  }

  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  using Order = std::list<std::pair<std::string, V>>;

  size_t capacity_;
  Order order_;  // most recently used first
  std::unordered_map<std::string_view, typename Order::iterator> index_;
};

}  // namespace sdr

#endif  // SDR_SRC_UTIL_LRU_MAP_H_
