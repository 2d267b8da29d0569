// Binary extension field GF(2^m) arithmetic, 3 <= m <= 16.
//
// BCH construction for a 4 KB page needs GF(2^16) (k + r <= 2^m - 1
// with k = 32768 demands m = 16); smaller fields are supported so
// tests and microbenches can sweep code sizes. Multiplication and
// inversion run over discrete log/antilog tables built once per field
// from a primitive polynomial; addition is XOR.
#pragma once

#include <cstdint>
#include <vector>

namespace xlf::gf {

// A field element is an unsigned value < 2^m. Element 0 is the
// additive identity; alpha = 0b10 is the primitive element whose
// powers enumerate the multiplicative group.
using Element = std::uint32_t;

class Gf2m {
 public:
  // Builds the field from the default primitive polynomial for m.
  explicit Gf2m(unsigned m);
  // Builds the field from a caller-supplied primitive polynomial given
  // as its bit pattern (bit i = coefficient of x^i); validated to be
  // primitive by checking the generated cycle length.
  Gf2m(unsigned m, std::uint32_t primitive_poly);

  unsigned m() const { return m_; }
  // Field size 2^m.
  std::uint32_t size() const { return 1u << m_; }
  // Multiplicative group order 2^m - 1.
  std::uint32_t order() const { return size() - 1; }
  std::uint32_t primitive_poly() const { return poly_; }

  static Element add(Element a, Element b) { return a ^ b; }
  Element mul(Element a, Element b) const;
  Element div(Element a, Element b) const;
  Element inv(Element a) const;
  // a^e with e possibly negative (interpreted modulo the group order).
  Element pow(Element a, long long e) const;
  // alpha^e for the primitive element.
  Element alpha_pow(long long e) const;
  // Discrete log base alpha; requires a != 0.
  std::uint32_t log(Element a) const;
  // Every element of GF(2^m) satisfies x = (x^(2^(m-1)))^2, so square
  // roots exist and are unique.
  Element sqrt(Element a) const;

  // Default primitive polynomial bit pattern for m in [3, 16].
  static std::uint32_t default_primitive_poly(unsigned m);

 private:
  void build_tables();

  // Elements and logs are below 2^m <= 2^16, so both tables hold
  // 16-bit entries (384 KB for GF(2^16)).
  unsigned m_;
  std::uint32_t poly_;
  std::vector<std::uint16_t> exp_;  // exp_[i] = alpha^i, doubled to skip mod
  std::vector<std::uint16_t> log_;  // log_[a] = i with alpha^i = a
};

}  // namespace xlf::gf
