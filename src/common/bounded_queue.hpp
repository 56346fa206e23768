// Fixed-capacity FIFO used for hardware queues (read queue, write queue,
// bank command queues, interconnect buffers, the L2 pipeline).
//
// Hardware queues have a physical depth; modelling them with an unbounded
// container hides back-pressure bugs, so capacity is a first-class part of
// the type and push() on a full queue is a programming error (callers must
// test full() first — exactly like hardware testing a "credit").
//
// Storage is a ring of exactly `capacity` slots, so steady-state traffic
// allocates nothing.  Slots are constructed on first use, not up front:
// the ring reserves its capacity at the first push and grows one slot at
// a time until it first wraps, which keeps construction cheap for the
// many queues a simulator owns and never touches.  Iterators are
// random-access positions in FIFO order (schedulers index `begin() + k`).
#pragma once

#include <compare>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace latdiv {

template <typename T>
class BoundedQueue {
  template <bool Const>
  class Iter {
    using Queue = std::conditional_t<Const, const BoundedQueue, BoundedQueue>;

   public:
    using iterator_category = std::random_access_iterator_tag;
    using iterator_concept = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;

    Iter() = default;
    Iter(Queue* q, std::size_t pos) : q_(q), pos_(pos) {}
    template <bool OtherConst>  // iterator -> const_iterator
      requires(Const && !OtherConst)
    Iter(const Iter<OtherConst>& other) : q_(other.q_), pos_(other.pos_) {}

    reference operator*() const { return q_->at(pos_); }
    pointer operator->() const { return &q_->at(pos_); }
    reference operator[](difference_type n) const {
      return q_->at(pos_ + static_cast<std::size_t>(n));
    }

    Iter& operator++() {
      ++pos_;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++pos_;
      return old;
    }
    Iter& operator--() {
      --pos_;
      return *this;
    }
    Iter operator--(int) {
      Iter old = *this;
      --pos_;
      return old;
    }
    Iter& operator+=(difference_type n) {
      pos_ += static_cast<std::size_t>(n);
      return *this;
    }
    Iter& operator-=(difference_type n) {
      pos_ -= static_cast<std::size_t>(n);
      return *this;
    }
    friend Iter operator+(Iter it, difference_type n) { return it += n; }
    friend Iter operator+(difference_type n, Iter it) { return it += n; }
    friend Iter operator-(Iter it, difference_type n) { return it -= n; }
    friend difference_type operator-(const Iter& a, const Iter& b) {
      return static_cast<difference_type>(a.pos_) -
             static_cast<difference_type>(b.pos_);
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.pos_ == b.pos_;
    }
    friend auto operator<=>(const Iter& a, const Iter& b) {
      return a.pos_ <=> b.pos_;
    }

   private:
    friend class BoundedQueue;
    friend class Iter<!Const>;
    Queue* q_ = nullptr;
    std::size_t pos_ = 0;  ///< FIFO position: 0 is the head
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    LATDIV_ASSERT(capacity > 0, "queue capacity must be positive");
  }

  [[nodiscard]] bool full() const noexcept { return size_ >= capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t free_slots() const noexcept {
    return capacity_ - size_;
  }

  void push(T item) {
    LATDIV_ASSERT(!full(), "push on full BoundedQueue");
    const std::size_t slot = wrap(head_ + size_);
    if (slot == slots_.size()) {
      // First use of this slot: until the ring first wraps, the occupied
      // span ends exactly at the last constructed slot.
      slots_.reserve(capacity_);
      slots_.push_back(std::move(item));
    } else {
      slots_[slot] = std::move(item);
    }
    ++size_;
  }

  [[nodiscard]] T& front() {
    LATDIV_ASSERT(!empty(), "front on empty BoundedQueue");
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const {
    LATDIV_ASSERT(!empty(), "front on empty BoundedQueue");
    return slots_[head_];
  }

  T pop() {
    LATDIV_ASSERT(!empty(), "pop on empty BoundedQueue");
    T item = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return item;
  }

  /// Drop every element (slots keep their storage).
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

  // Iteration support for schedulers that scan queue contents (a real
  // scheduler reads all valid entries of the request queue CAM).
  [[nodiscard]] iterator begin() noexcept { return {this, 0}; }
  [[nodiscard]] iterator end() noexcept { return {this, size_}; }
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size_}; }

  /// Remove the element at `pos`, keeping FIFO order, and return the
  /// position of the element that followed it (schedulers pick from the
  /// middle of the queue; hardware equivalently clears a CAM entry).  The
  /// shorter side of the ring shifts by one slot.
  iterator erase(const_iterator pos) {
    const std::size_t i = pos.pos_;
    LATDIV_ASSERT(i < size_, "erase past the end of BoundedQueue");
    if (i < size_ / 2) {
      for (std::size_t k = i; k > 0; --k) at(k) = std::move(at(k - 1));
      head_ = wrap(head_ + 1);
    } else {
      for (std::size_t k = i; k + 1 < size_; ++k) at(k) = std::move(at(k + 1));
    }
    --size_;
    return {this, i};
  }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t slot) const noexcept {
    return slot >= capacity_ ? slot - capacity_ : slot;
  }
  [[nodiscard]] T& at(std::size_t pos) { return slots_[wrap(head_ + pos)]; }
  [[nodiscard]] const T& at(std::size_t pos) const {
    return slots_[wrap(head_ + pos)];
  }

  std::size_t capacity_;
  std::size_t head_ = 0;  ///< slot of the oldest element
  std::size_t size_ = 0;
  std::vector<T> slots_;  ///< grows to capacity_ on first use, then fixed
};

}  // namespace latdiv
