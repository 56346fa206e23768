// Fixed-capacity FIFO used for hardware queues (read queue, write queue,
// command queues, interconnect buffers).
//
// Hardware queues have a physical depth; modelling them with an unbounded
// std::deque hides back-pressure bugs, so capacity is a first-class part of
// the type and push() on a full queue is a programming error (callers must
// test full() first — exactly like hardware testing a "credit").
#pragma once

#include <cstddef>
#include <deque>
#include <utility>

#include "common/log.hpp"

namespace latdiv {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    LATDIV_ASSERT(capacity > 0, "queue capacity must be positive");
  }

  [[nodiscard]] bool full() const noexcept { return items_.size() >= capacity_; }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t free_slots() const noexcept {
    return capacity_ - items_.size();
  }

  void push(T item) {
    LATDIV_ASSERT(!full(), "push on full BoundedQueue");
    items_.push_back(std::move(item));
  }

  [[nodiscard]] T& front() {
    LATDIV_ASSERT(!empty(), "front on empty BoundedQueue");
    return items_.front();
  }
  [[nodiscard]] const T& front() const {
    LATDIV_ASSERT(!empty(), "front on empty BoundedQueue");
    return items_.front();
  }

  T pop() {
    LATDIV_ASSERT(!empty(), "pop on empty BoundedQueue");
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Iteration support for schedulers that scan queue contents (a real
  // scheduler reads all valid entries of the request queue CAM).
  [[nodiscard]] auto begin() noexcept { return items_.begin(); }
  [[nodiscard]] auto end() noexcept { return items_.end(); }
  [[nodiscard]] auto begin() const noexcept { return items_.begin(); }
  [[nodiscard]] auto end() const noexcept { return items_.end(); }

  /// Remove the element at iterator position (schedulers pick from the
  /// middle of the queue; hardware equivalently clears a CAM entry).
  auto erase(typename std::deque<T>::iterator pos) {
    return items_.erase(pos);
  }

 private:
  std::size_t capacity_;
  std::deque<T> items_;
};

}  // namespace latdiv
