// Rows of fixed-width bitsets in one allocation, for the event-driven hot
// path.
//
// The SM issue stage and the crossbar arbiters keep small sets of "ids
// whose state can change this cycle" and walk them with find-first-set
// instead of probing every id.  Widths come from the configuration (warps
// per SM, SMs, partitions) and may exceed one 64-bit word, so each row is
// a run of words; all rows share one vector, so a component's masks cost
// one heap allocation however many rows it keeps.  Every query is
// O(words per row).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace latdiv {

class BitRows {
 public:
  static constexpr std::size_t kWordBits = 64;

  BitRows(std::size_t rows, std::size_t bits)
      : bits_(bits),
        row_words_((bits + kWordBits - 1) / kWordBits),
        words_(rows * row_words_, 0) {}

  [[nodiscard]] std::uint64_t word(std::size_t row, std::size_t w) const {
    return words_[row * row_words_ + w];
  }
  void set(std::size_t row, std::size_t i) { at(row, i) |= bit(i); }
  void reset(std::size_t row, std::size_t i) { at(row, i) &= ~bit(i); }
  void assign(std::size_t row, std::size_t i, bool on) {
    on ? set(row, i) : reset(row, i);
  }
  [[nodiscard]] bool test(std::size_t row, std::size_t i) const {
    return (words_[row * row_words_ + i / kWordBits] & bit(i)) != 0;
  }
  void clear() {
    for (std::uint64_t& w : words_) w = 0;
  }
  friend bool operator==(const BitRows&, const BitRows&) = default;

  /// First set bit of `row` in [from, end), or `end` if there is none.
  [[nodiscard]] std::size_t find_next(std::size_t row, std::size_t from,
                                      std::size_t end) const {
    return scan_words(from, end,
                      [this, row](std::size_t w) { return word(row, w); });
  }

  /// First set bit of `row` at or after `start` (taken modulo the row
  /// width), wrapping past the end — a round-robin arbiter's grant; the
  /// row width if the row is empty.
  [[nodiscard]] std::size_t find_cyclic(std::size_t row,
                                        std::size_t start) const {
    if (bits_ == 0) return 0;
    start %= bits_;
    const std::size_t hit = find_next(row, start, bits_);
    if (hit != bits_) return hit;
    const std::size_t wrapped = find_next(row, 0, start);
    return wrapped != start ? wrapped : bits_;
  }

  /// First bit in [from, end) set in `word_of(w)`, or `end`: the
  /// find-first-set walk over a set computed word by word (e.g. a union
  /// of rows).  `word_of` is re-evaluated per word, so a caller whose
  /// inputs change between calls always sees the current set.
  template <class WordFn>
  [[nodiscard]] static std::size_t scan_words(std::size_t from,
                                              std::size_t end,
                                              WordFn word_of) {
    if (from >= end) return end;
    std::size_t w = from / kWordBits;
    std::uint64_t bits = word_of(w) & (~std::uint64_t{0} << (from % kWordBits));
    while (true) {
      if (bits != 0) {
        const std::size_t i =
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        return i < end ? i : end;
      }
      ++w;
      if (w * kWordBits >= end) return end;
      bits = word_of(w);
    }
  }

 private:
  static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i % kWordBits);
  }
  std::uint64_t& at(std::size_t row, std::size_t i) {
    return words_[row * row_words_ + i / kWordBits];
  }

  std::size_t bits_;
  std::size_t row_words_;
  std::vector<std::uint64_t> words_;
};

}  // namespace latdiv
