// RecentMemo: the last N (key -> value) pairs of a pure function whose
// argument repeats in runs, such as a block's rber between two of its
// erases. A lookup is a linear scan of
// at most N keys; a miss computes the value and overwrites the oldest
// pair. Keys compare with ==, so a floating-point argument should be
// keyed by its bit pattern (std::bit_cast) to keep the memo exact.
// One owner, no synchronisation.
#pragma once

#include <array>
#include <cstddef>
#include <utility>

namespace xlf {

template <class Key, class Value, std::size_t N>
class RecentMemo {
  static_assert(N >= 1);

 public:
  // The memoised value for `key`; on a miss, `compute()` supplies it.
  template <class Compute>
  const Value& get(const Key& key, Compute&& compute) {
    for (std::size_t i = 0; i < size_; ++i) {
      if (keys_[i] == key) return values_[i];
    }
    Value value = compute();
    const std::size_t i = next_;
    keys_[i] = key;
    values_[i] = std::move(value);
    next_ = (next_ + 1) % N;
    if (size_ < N) ++size_;
    return values_[i];
  }

 private:
  std::array<Key, N> keys_{};
  std::array<Value, N> values_{};
  std::size_t size_ = 0;
  std::size_t next_ = 0;
};

}  // namespace xlf
