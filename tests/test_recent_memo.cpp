#include "src/util/recent_memo.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace xlf {
namespace {

TEST(RecentMemo, ComputesOncePerKeyWhileHeld) {
  RecentMemo<int, int, 3> memo;
  int calls = 0;
  const auto square = [&](int x) {
    return [&calls, x] {
      ++calls;
      return x * x;
    };
  };
  EXPECT_EQ(memo.get(2, square(2)), 4);
  EXPECT_EQ(memo.get(3, square(3)), 9);
  EXPECT_EQ(memo.get(2, square(2)), 4);
  EXPECT_EQ(calls, 2);
}

TEST(RecentMemo, AMissReplacesTheOldestPair) {
  RecentMemo<int, int, 2> memo;
  int calls = 0;
  const auto negate = [&](int x) {
    return [&calls, x] {
      ++calls;
      return -x;
    };
  };
  memo.get(1, negate(1));
  memo.get(2, negate(2));
  memo.get(3, negate(3));  // evicts 1, the oldest
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(memo.get(2, negate(2)), -2);
  EXPECT_EQ(memo.get(3, negate(3)), -3);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(memo.get(1, negate(1)), -1);  // recomputed, evicts 2
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(memo.get(3, negate(3)), -3);
  EXPECT_EQ(calls, 4);
}

TEST(RecentMemo, AThrowingComputeLeavesTheMemoUnchanged) {
  RecentMemo<int, int, 2> memo;
  memo.get(1, [] { return 10; });
  EXPECT_THROW(
      memo.get(2, []() -> int { throw std::runtime_error("no value"); }),
      std::runtime_error);
  // Key 2 was not recorded, key 1 is still held.
  EXPECT_EQ(memo.get(2, [] { return 20; }), 20);
  EXPECT_EQ(memo.get(1, [] { return -1; }), 10);
}

}  // namespace
}  // namespace xlf
