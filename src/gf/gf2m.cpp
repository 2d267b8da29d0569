#include "src/gf/gf2m.hpp"

#include "src/util/expect.hpp"

namespace xlf::gf {

std::uint32_t Gf2m::default_primitive_poly(unsigned m) {
  // Standard primitive polynomials (Lin & Costello, Appendix A-ish
  // table); bit i is the coefficient of x^i.
  switch (m) {
    case 3: return 0x0B;      // x^3 + x + 1
    case 4: return 0x13;      // x^4 + x + 1
    case 5: return 0x25;      // x^5 + x^2 + 1
    case 6: return 0x43;      // x^6 + x + 1
    case 7: return 0x89;      // x^7 + x^3 + 1
    case 8: return 0x11D;     // x^8 + x^4 + x^3 + x^2 + 1
    case 9: return 0x211;     // x^9 + x^4 + 1
    case 10: return 0x409;    // x^10 + x^3 + 1
    case 11: return 0x805;    // x^11 + x^2 + 1
    case 12: return 0x1053;   // x^12 + x^6 + x^4 + x + 1
    case 13: return 0x201B;   // x^13 + x^4 + x^3 + x + 1
    case 14: return 0x4443;   // x^14 + x^10 + x^6 + x + 1
    case 15: return 0x8003;   // x^15 + x + 1
    case 16: return 0x1100B;  // x^16 + x^12 + x^3 + x + 1
    default:
      XLF_EXPECT(false && "unsupported field degree");
      return 0;
  }
}

Gf2m::Gf2m(unsigned m) : Gf2m(m, default_primitive_poly(m)) {}

Gf2m::Gf2m(unsigned m, std::uint32_t primitive_poly)
    : m_(m), poly_(primitive_poly) {
  XLF_EXPECT(m >= 3 && m <= 16);
  XLF_EXPECT((primitive_poly >> m) == 1u);  // monic of degree exactly m
  build_tables();
}

void Gf2m::build_tables() {
  const std::uint32_t q = size();
  const std::uint32_t n = order();
  exp_.assign(2 * n, 0);
  log_.assign(q, 0);

  Element x = 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    // The polynomial is primitive iff alpha's powers only return to 1
    // after exactly 2^m - 1 steps.
    XLF_EXPECT(!(i > 0 && x == 1) && "polynomial is not primitive");
    exp_[i] = static_cast<std::uint16_t>(x);
    exp_[i + n] = static_cast<std::uint16_t>(x);
    log_[x] = static_cast<std::uint16_t>(i);
    x <<= 1;
    if (x & q) x ^= poly_;
  }
  XLF_ENSURE(x == 1);  // closes the cycle
}

Element Gf2m::mul(Element a, Element b) const {
  if (a == 0 || b == 0) return 0;
  return exp_[log_[a] + log_[b]];
}

Element Gf2m::inv(Element a) const {
  XLF_EXPECT(a != 0);
  return exp_[order() - log_[a]];
}

Element Gf2m::div(Element a, Element b) const {
  XLF_EXPECT(b != 0);
  if (a == 0) return 0;
  return exp_[log_[a] + order() - log_[b]];
}

Element Gf2m::pow(Element a, long long e) const {
  if (a == 0) {
    XLF_EXPECT(e > 0);  // 0^0 and negative powers of 0 are undefined
    return 0;
  }
  const long long n = static_cast<long long>(order());
  long long idx = (static_cast<long long>(log_[a]) * (e % n)) % n;
  if (idx < 0) idx += n;
  return exp_[static_cast<std::uint32_t>(idx)];
}

Element Gf2m::alpha_pow(long long e) const {
  const long long n = static_cast<long long>(order());
  long long idx = e % n;
  if (idx < 0) idx += n;
  return exp_[static_cast<std::uint32_t>(idx)];
}

std::uint32_t Gf2m::log(Element a) const {
  XLF_EXPECT(a != 0);
  return log_[a];
}

Element Gf2m::sqrt(Element a) const {
  if (a == 0) return 0;
  // In characteristic 2, squaring is a bijection; the inverse map is
  // x -> x^(2^(m-1)).
  Element r = a;
  for (unsigned i = 0; i + 1 < m_; ++i) r = mul(r, r);
  return r;
}

}  // namespace xlf::gf
