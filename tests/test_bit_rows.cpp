// BitRows: the multi-word find-first-set walks behind the SM issue masks
// and the crossbar arbiters, checked across word and row boundaries.
#include "common/bit_rows.hpp"

#include <gtest/gtest.h>

namespace latdiv {
namespace {

TEST(BitRows, FindNextCrossesWordsAndStaysInItsRow) {
  BitRows b(2, 150);
  for (std::size_t i : {3u, 64u, 127u, 149u}) b.set(1, i);
  EXPECT_EQ(b.find_next(0, 0, 150), 150u);  // row 0 is untouched
  EXPECT_EQ(b.find_next(1, 0, 150), 3u);
  EXPECT_EQ(b.find_next(1, 4, 150), 64u);
  EXPECT_EQ(b.find_next(1, 65, 150), 127u);
  EXPECT_EQ(b.find_next(1, 128, 150), 149u);
  EXPECT_EQ(b.find_next(1, 65, 127), 127u);  // bit 127 lies outside [65, 127)
  EXPECT_EQ(b.find_next(1, 150, 150), 150u);
  b.reset(1, 64);
  EXPECT_FALSE(b.test(1, 64));
  EXPECT_EQ(b.find_next(1, 4, 150), 127u);
}

TEST(BitRows, FindCyclicWrapsLikeARoundRobinPointer) {
  BitRows b(3, 100);
  EXPECT_EQ(b.find_cyclic(1, 0), 100u);  // empty row: the "none" sentinel
  b.set(1, 10);
  b.set(1, 70);
  b.set(2, 50);
  EXPECT_EQ(b.find_cyclic(1, 0), 10u);
  EXPECT_EQ(b.find_cyclic(1, 10), 10u);
  EXPECT_EQ(b.find_cyclic(1, 11), 70u);
  EXPECT_EQ(b.find_cyclic(1, 71), 10u);   // wraps past the end
  EXPECT_EQ(b.find_cyclic(1, 170), 70u);  // start taken modulo the width
  EXPECT_EQ(b.find_cyclic(0, 0), 100u);
  b.clear();
  b.set(1, 99);
  EXPECT_EQ(b.find_cyclic(1, 0), 99u);
  EXPECT_EQ(b.find_cyclic(1, 99), 99u);
  EXPECT_EQ(b.find_cyclic(2, 0), 100u);
}

TEST(BitRows, ScanWordsRereadsTheWordSourcePerWord) {
  // A union of two rows, computed word by word as the SM issue scan does.
  BitRows b(2, 130);
  b.set(0, 5);
  b.set(1, 128);
  auto either = [&](std::size_t w) { return b.word(0, w) | b.word(1, w); };
  EXPECT_EQ(BitRows::scan_words(0, 130, either), 5u);
  EXPECT_EQ(BitRows::scan_words(6, 130, either), 128u);
  EXPECT_EQ(BitRows::scan_words(6, 128, either), 128u);  // == end: none
  BitRows same(2, 130);
  same.set(0, 5);
  EXPECT_FALSE(same == b);
  same.set(1, 128);
  EXPECT_TRUE(same == b);
}

}  // namespace
}  // namespace latdiv
