#include "src/util/bitvec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/util/rng.hpp"

namespace xlf {
namespace {

TEST(BitVec, StartsZeroed) {
  BitVec v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVec, SetGetFlip) {
  BitVec v(130);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(64);
  EXPECT_FALSE(v.get(64));
  v.flip(65);
  EXPECT_TRUE(v.get(65));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(10);
  EXPECT_THROW(v.get(10), std::invalid_argument);
  EXPECT_THROW(v.set(10, true), std::invalid_argument);
  EXPECT_THROW(v.flip(10), std::invalid_argument);
}

TEST(BitVec, SetPositionsAscending) {
  BitVec v(200);
  v.set(5, true);
  v.set(199, true);
  v.set(64, true);
  const auto positions = v.set_positions();
  ASSERT_EQ(positions.size(), 3u);
  EXPECT_EQ(positions[0], 5u);
  EXPECT_EQ(positions[1], 64u);
  EXPECT_EQ(positions[2], 199u);
}

TEST(BitVec, HammingDistance) {
  BitVec a(128), b(128);
  a.set(3, true);
  a.set(70, true);
  b.set(70, true);
  b.set(100, true);
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(BitVec, XorAccumulate) {
  BitVec a(128), b(128);
  a.set(1, true);
  a.set(2, true);
  b.set(2, true);
  b.set(3, true);
  a ^= b;
  EXPECT_TRUE(a.get(1));
  EXPECT_FALSE(a.get(2));
  EXPECT_TRUE(a.get(3));
}

TEST(BitVec, SliceAlignedAndUnaligned) {
  BitVec v(256);
  for (std::size_t i = 0; i < 256; i += 3) v.set(i, true);

  const BitVec aligned = v.slice(64, 128);
  EXPECT_EQ(aligned.size(), 128u);
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_EQ(aligned.get(i), v.get(64 + i)) << "bit " << i;
  }

  const BitVec unaligned = v.slice(13, 77);
  EXPECT_EQ(unaligned.size(), 77u);
  for (std::size_t i = 0; i < 77; ++i) {
    EXPECT_EQ(unaligned.get(i), v.get(13 + i)) << "bit " << i;
  }
}

TEST(BitVec, InsertRoundTripsSlice) {
  Rng rng(42);
  BitVec v(512);
  for (std::size_t i = 0; i < v.size(); ++i) v.set(i, rng.chance(0.5));

  BitVec dst(512);
  dst.insert(128, v.slice(128, 256));
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(dst.get(128 + i), v.get(128 + i));
  }

  // Unaligned insert.
  BitVec dst2(512);
  dst2.insert(3, v.slice(0, 100));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(dst2.get(3 + i), v.get(i));
  }
}

TEST(BitVec, ByteAccess) {
  BitVec v(64);
  v.set_byte(0, 0xA5);
  v.set_byte(7, 0xFF);
  EXPECT_EQ(v.byte(0), 0xA5);
  EXPECT_EQ(v.byte(7), 0xFF);
  // Byte 0 covers bits 0..7 little-endian.
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(2));
  EXPECT_TRUE(v.get(7));
}

TEST(BitVec, ByteWriteDoesNotDisturbNeighbours) {
  BitVec v(24);
  v.set_byte(0, 0xFF);
  v.set_byte(2, 0xFF);
  v.set_byte(1, 0x81);
  EXPECT_EQ(v.byte(0), 0xFF);
  EXPECT_EQ(v.byte(1), 0x81);
  EXPECT_EQ(v.byte(2), 0xFF);
}

TEST(BitVec, TailBitsStayMasked) {
  BitVec v(70);  // 6 tail bits in second word
  for (std::size_t i = 0; i < 70; ++i) v.set(i, true);
  EXPECT_EQ(v.popcount(), 70u);
  const auto positions = v.set_positions();
  EXPECT_EQ(positions.size(), 70u);
  EXPECT_EQ(positions.back(), 69u);
}

TEST(BitVec, SetWordMasksTail) {
  BitVec v(70);
  v.set_word(0, 0x8000000000000001ull);
  v.set_word(1, ~0ull);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 2u + 6u);  // only the 6 live tail bits
  EXPECT_THROW(v.set_word(2, 0), std::invalid_argument);
}

TEST(BitVec, EqualityIncludesLength) {
  BitVec a(10), b(10), c(11);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  b.set(9, true);
  EXPECT_FALSE(a == b);
}

TEST(BitVec, ClearResets) {
  BitVec v(128);
  v.set(5, true);
  v.set(127, true);
  v.clear();
  EXPECT_EQ(v.popcount(), 0u);
  EXPECT_EQ(v.size(), 128u);
}

// Per-bit reference for slice/insert, which copy a word at a time.
BitVec reference_slice(const BitVec& v, std::size_t offset, std::size_t count) {
  BitVec out(count);
  for (std::size_t i = 0; i < count; ++i) out.set(i, v.get(offset + i));
  return out;
}

BitVec random_bits(Rng& rng, std::size_t bits) {
  BitVec v(bits);
  for (std::size_t w = 0; w < v.words().size(); ++w) v.set_word(w, rng.next());
  return v;
}

// Lengths with and without a tail word, from a few bits to several
// words, including exact multiples of 64.
std::vector<std::size_t> test_lengths(Rng& rng) {
  std::vector<std::size_t> lengths{0, 1, 63, 64, 65, 128, 200, 256, 257};
  for (int i = 0; i < 4; ++i) lengths.push_back(1 + rng.below(400));
  return lengths;
}

TEST(BitVec, SliceMatchesPerBitReferenceAtEveryOffset) {
  Rng rng(0x51ACE);
  for (std::size_t offset = 0; offset < 128; ++offset) {
    for (std::size_t count : test_lengths(rng)) {
      // Slices ending exactly at the source's end and well inside it.
      for (std::size_t after : {std::size_t{0}, 1 + rng.below(150)}) {
        const BitVec v = random_bits(rng, offset + count + after);
        const BitVec got = v.slice(offset, count);
        const BitVec want = reference_slice(v, offset, count);
        // operator== compares whole words, so a set bit past size()
        // would show here.
        ASSERT_EQ(got, want) << "offset " << offset << " count " << count
                             << " after " << after;
      }
    }
  }
  EXPECT_THROW(random_bits(rng, 700).slice(650, 51), std::invalid_argument);
}

TEST(BitVec, InsertMatchesPerBitReferenceAndLeavesNeighboursAlone) {
  Rng rng(0x1E5E);
  for (std::size_t offset = 0; offset < 128; ++offset) {
    for (std::size_t count : test_lengths(rng)) {
      const BitVec before = random_bits(rng, 640);
      const BitVec src = random_bits(rng, count);
      BitVec got = before;
      got.insert(offset, src);
      BitVec want = before;
      for (std::size_t i = 0; i < count; ++i) want.set(offset + i, src.get(i));
      ASSERT_EQ(got, want) << "offset " << offset << " count " << count;
    }
  }
  // The destination's own tail stays masked when the insert ends in it.
  BitVec tail(100);
  BitVec ones(37);
  for (std::size_t w = 0; w < ones.words().size(); ++w) ones.set_word(w, ~0ull);
  tail.insert(63, ones);
  EXPECT_EQ(tail.popcount(), 37u);
  EXPECT_EQ(tail.word(1) >> 36, 0u);
  EXPECT_THROW(tail.insert(64, ones), std::invalid_argument);
}

}  // namespace
}  // namespace xlf
