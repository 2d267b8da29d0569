#include "src/gf/gf2m.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/util/rng.hpp"

namespace xlf::gf {
namespace {

// Field axioms checked across every supported degree — the BCH stack
// uses GF(2^16) in production and smaller fields in tests/benches.
class Gf2mAxioms : public ::testing::TestWithParam<unsigned> {};

TEST_P(Gf2mAxioms, SizesAndOrder) {
  const Gf2m field(GetParam());
  EXPECT_EQ(field.m(), GetParam());
  EXPECT_EQ(field.size(), 1u << GetParam());
  EXPECT_EQ(field.order(), (1u << GetParam()) - 1);
}

TEST_P(Gf2mAxioms, MultiplicationClosedAndCommutative) {
  const Gf2m field(GetParam());
  Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    const Element a = static_cast<Element>(rng.below(field.size()));
    const Element b = static_cast<Element>(rng.below(field.size()));
    const Element ab = field.mul(a, b);
    EXPECT_LT(ab, field.size());
    EXPECT_EQ(ab, field.mul(b, a));
  }
}

TEST_P(Gf2mAxioms, MultiplicationAssociative) {
  const Gf2m field(GetParam());
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 300; ++trial) {
    const Element a = static_cast<Element>(rng.below(field.size()));
    const Element b = static_cast<Element>(rng.below(field.size()));
    const Element c = static_cast<Element>(rng.below(field.size()));
    EXPECT_EQ(field.mul(field.mul(a, b), c), field.mul(a, field.mul(b, c)));
  }
}

TEST_P(Gf2mAxioms, DistributivityOverAddition) {
  const Gf2m field(GetParam());
  Rng rng(GetParam() + 200);
  for (int trial = 0; trial < 300; ++trial) {
    const Element a = static_cast<Element>(rng.below(field.size()));
    const Element b = static_cast<Element>(rng.below(field.size()));
    const Element c = static_cast<Element>(rng.below(field.size()));
    EXPECT_EQ(field.mul(a, Gf2m::add(b, c)),
              Gf2m::add(field.mul(a, b), field.mul(a, c)));
  }
}

TEST_P(Gf2mAxioms, MultiplicativeIdentityAndZero) {
  const Gf2m field(GetParam());
  for (Element a = 0; a < field.size(); a += 7) {
    EXPECT_EQ(field.mul(a, 1), a);
    EXPECT_EQ(field.mul(a, 0), 0u);
  }
}

TEST_P(Gf2mAxioms, InverseUndoesMultiplication) {
  const Gf2m field(GetParam());
  Rng rng(GetParam() + 300);
  for (int trial = 0; trial < 500; ++trial) {
    const Element a = 1 + static_cast<Element>(rng.below(field.order()));
    EXPECT_EQ(field.mul(a, field.inv(a)), 1u);
    const Element b = 1 + static_cast<Element>(rng.below(field.order()));
    EXPECT_EQ(field.mul(field.div(a, b), b), a);
  }
  EXPECT_THROW(field.inv(0), std::invalid_argument);
  EXPECT_THROW(field.div(1, 0), std::invalid_argument);
}

TEST_P(Gf2mAxioms, AdditionIsSelfInverse) {
  const Gf2m field(GetParam());
  for (Element a = 0; a < field.size(); a += 5) {
    EXPECT_EQ(Gf2m::add(a, a), 0u);
    EXPECT_EQ(Gf2m::add(a, 0), a);
  }
}

TEST_P(Gf2mAxioms, AlphaGeneratesWholeGroup) {
  const Gf2m field(GetParam());
  // alpha's powers must touch every nonzero element exactly once.
  std::vector<bool> seen(field.size(), false);
  for (std::uint32_t i = 0; i < field.order(); ++i) {
    const Element x = field.alpha_pow(i);
    EXPECT_FALSE(seen[x]) << "repeat at exponent " << i;
    seen[x] = true;
  }
  EXPECT_FALSE(seen[0]);
}

TEST_P(Gf2mAxioms, LogIsInverseOfAlphaPow) {
  const Gf2m field(GetParam());
  Rng rng(GetParam() + 400);
  for (int trial = 0; trial < 300; ++trial) {
    const auto e = static_cast<std::uint32_t>(rng.below(field.order()));
    EXPECT_EQ(field.log(field.alpha_pow(e)), e);
  }
  EXPECT_THROW(field.log(0), std::invalid_argument);
}

TEST_P(Gf2mAxioms, PowHandlesNegativeExponents) {
  const Gf2m field(GetParam());
  Rng rng(GetParam() + 500);
  for (int trial = 0; trial < 200; ++trial) {
    const Element a = 1 + static_cast<Element>(rng.below(field.order()));
    EXPECT_EQ(field.mul(field.pow(a, 3), field.pow(a, -3)), 1u);
    EXPECT_EQ(field.pow(a, field.order()), a == 0 ? 0u : field.pow(a, 0));
  }
  EXPECT_EQ(field.alpha_pow(-1), field.inv(field.alpha_pow(1)));
}

TEST_P(Gf2mAxioms, SqrtInvertsSquaring) {
  const Gf2m field(GetParam());
  Rng rng(GetParam() + 600);
  for (int trial = 0; trial < 300; ++trial) {
    const Element a = static_cast<Element>(rng.below(field.size()));
    EXPECT_EQ(field.sqrt(field.mul(a, a)), a);
  }
}

TEST_P(Gf2mAxioms, FrobeniusFreshmanDream) {
  // (a + b)^2 = a^2 + b^2 in characteristic 2 — the identity behind
  // the decoder's even-syndrome shortcut.
  const Gf2m field(GetParam());
  Rng rng(GetParam() + 700);
  for (int trial = 0; trial < 300; ++trial) {
    const Element a = static_cast<Element>(rng.below(field.size()));
    const Element b = static_cast<Element>(rng.below(field.size()));
    const Element lhs = field.mul(Gf2m::add(a, b), Gf2m::add(a, b));
    const Element rhs = Gf2m::add(field.mul(a, a), field.mul(b, b));
    EXPECT_EQ(lhs, rhs);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, Gf2mAxioms,
                         ::testing::Values(3u, 4u, 5u, 6u, 8u, 10u, 13u, 16u));

TEST(Gf2m, RejectsNonPrimitivePolynomial) {
  // x^4 + x^3 + x^2 + x + 1 is irreducible but NOT primitive (its
  // roots have order 5, not 15).
  EXPECT_THROW(Gf2m(4, 0x1F), std::invalid_argument);
}

TEST(Gf2m, RejectsWrongDegreePolynomial) {
  EXPECT_THROW(Gf2m(4, 0x0B), std::invalid_argument);   // degree 3
  EXPECT_THROW(Gf2m(4, 0x103), std::invalid_argument);  // degree 8
}

TEST(Gf2m, RejectsUnsupportedDegrees) {
  EXPECT_THROW(Gf2m(2), std::invalid_argument);
  EXPECT_THROW(Gf2m(17), std::invalid_argument);
}

TEST(Gf2m, KnownGf16MultiplicationTable) {
  // Spot values for GF(16) with x^4 + x + 1: alpha^4 = alpha + 1 = 3.
  const Gf2m field(4);
  EXPECT_EQ(field.alpha_pow(0), 1u);
  EXPECT_EQ(field.alpha_pow(1), 2u);
  EXPECT_EQ(field.alpha_pow(4), 3u);
  EXPECT_EQ(field.mul(2, 2), 4u);     // alpha * alpha = alpha^2
  EXPECT_EQ(field.mul(8, 2), 3u);     // alpha^3 * alpha = alpha^4
  EXPECT_EQ(field.mul(9, 9), 13u);    // (alpha^3+1)^2 = alpha^6+1
}

// Carry-less shift-and-add multiplication reduced by the field's
// primitive polynomial: the table-free reference for mul/div/inv.
Element reference_mul(const Gf2m& field, Element a, Element b) {
  Element product = 0;
  for (unsigned bit = 0; bit < field.m(); ++bit) {
    if ((b >> bit) & 1u) product ^= a;
    a <<= 1;
    if (a & field.size()) a ^= field.primitive_poly();
  }
  return product;
}

void expect_matches_reference(const Gf2m& field, Element a, Element b) {
  ASSERT_EQ(field.mul(a, b), reference_mul(field, a, b))
      << "m " << field.m() << " a " << a << " b " << b;
  if (b != 0) {
    ASSERT_EQ(reference_mul(field, field.div(a, b), b), a)
        << "m " << field.m() << " a " << a << " b " << b;
    ASSERT_EQ(reference_mul(field, field.inv(b), b), 1u)
        << "m " << field.m() << " b " << b;
  }
}

TEST(Gf2m, TablesMatchShiftAndAddExhaustivelyUpToDegree10) {
  for (unsigned m = 3; m <= 10; ++m) {
    const Gf2m field(m);
    for (Element a = 0; a < field.size(); ++a) {
      for (Element b = 0; b < field.size(); ++b) {
        expect_matches_reference(field, a, b);
      }
    }
  }
}

TEST(Gf2m, TablesMatchShiftAndAddOnRandomPairsAtDegree16) {
  const Gf2m field(16);
  Rng rng(0x6F16);
  for (int i = 0; i < 200000; ++i) {
    const auto a = static_cast<Element>(rng.below(field.size()));
    const auto b = static_cast<Element>(rng.below(field.size()));
    expect_matches_reference(field, a, b);
  }
  // The extremes of the 16-bit tables: the largest element and log
  // values next to the group order.
  for (Element a : {1u, 2u, 0xFFFFu, field.alpha_pow(-1), field.alpha_pow(-2)}) {
    for (Element b : {1u, 0xFFFFu, field.alpha_pow(-1)}) {
      expect_matches_reference(field, a, b);
    }
  }
}

}  // namespace
}  // namespace xlf::gf
