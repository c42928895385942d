#include "util/prob.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <utility>

namespace gdlog {

namespace {

using Int128 = __int128;

bool FitsInt64(Int128 v) {
  return v <= INT64_MAX && v >= INT64_MIN;
}

using UInt128 = unsigned __int128;

UInt128 Abs128(Int128 v) {
  return v < 0 ? -static_cast<UInt128>(v) : static_cast<UInt128>(v);
}

int Ctz128(UInt128 v) {
  uint64_t low = static_cast<uint64_t>(v);
  return low != 0 ? __builtin_ctzll(low)
                  : 64 + __builtin_ctzll(static_cast<uint64_t>(v >> 64));
}

// Binary (Stein) gcd: shifts and subtractions only, where Euclid would
// call the out-of-line 128-bit division once per step.
UInt128 Gcd128(UInt128 a, UInt128 b) {
  if (a == 0) return b;
  if (b == 0) return a;
  int shift = Ctz128(a | b);
  a >>= Ctz128(a);
  do {
    b >>= Ctz128(b);
    if (a > b) std::swap(a, b);
    b -= a;
  } while (b != 0);
  return a << shift;
}

}  // namespace

Rational::Rational(int64_t num, int64_t den)
    : num_(num), den_(den), exact_(den != 0) {
  if (!exact_) {
    approx_ = std::numeric_limits<double>::quiet_NaN();
    return;
  }
  Normalize();
}

void Rational::Normalize() {
  if (!exact_) return;
  if (den_ < 0) {
    num_ = -num_;
    den_ = -den_;
  }
  int64_t g = std::gcd(num_ < 0 ? -num_ : num_, den_);
  if (g > 1) {
    num_ /= g;
    den_ /= g;
  }
}

Rational Rational::Inexact(double approx) {
  Rational r;
  r.exact_ = false;
  r.approx_ = approx;
  return r;
}

Rational Rational::FromDecimal(double d) {
  // Try denominators 10^k for k = 0..9: catches every decimal literal with
  // up to nine fractional digits, which covers program text like 0.1, 0.25.
  int64_t den = 1;
  for (int k = 0; k <= 9; ++k) {
    double scaled = d * static_cast<double>(den);
    double rounded = std::nearbyint(scaled);
    if (std::fabs(scaled - rounded) < 1e-9 * std::max(1.0, std::fabs(scaled)) &&
        std::fabs(rounded) < 9.2e18) {
      int64_t num = static_cast<int64_t>(rounded);
      // Never collapse a non-zero double to the exact rational 0 (tiny
      // probability masses must stay positive, merely inexact).
      if (num == 0 && d != 0.0) {
        den *= 10;
        continue;
      }
      if (static_cast<double>(num) / static_cast<double>(den) == d ||
          std::fabs(static_cast<double>(num) / static_cast<double>(den) - d) <
              1e-15 * std::max(1.0, std::fabs(d))) {
        return Rational(num, den);
      }
    }
    den *= 10;
  }
  return Inexact(d);
}

double Rational::ToDouble() const {
  if (!exact_) return approx_;
  return static_cast<double>(num_) / static_cast<double>(den_);
}

Rational Rational::operator*(const Rational& other) const {
  if (!exact_ || !other.exact_) return Inexact(ToDouble() * other.ToDouble());
  // Cross-reduce before multiplying to delay overflow.
  int64_t g1 = std::gcd(num_ < 0 ? -num_ : num_, other.den_);
  int64_t g2 = std::gcd(other.num_ < 0 ? -other.num_ : other.num_, den_);
  Int128 num = Int128(num_ / g1) * Int128(other.num_ / g2);
  Int128 den = Int128(den_ / g2) * Int128(other.den_ / g1);
  if (!FitsInt64(num) || !FitsInt64(den)) {
    return Inexact(ToDouble() * other.ToDouble());
  }
  return Rational(static_cast<int64_t>(num), static_cast<int64_t>(den));
}

Rational Rational::operator+(const Rational& other) const {
  if (!exact_ || !other.exact_) return Inexact(ToDouble() + other.ToDouble());
  Int128 num = Int128(num_) * other.den_ + Int128(other.num_) * den_;
  Int128 den = Int128(den_) * other.den_;
  Int128 g = static_cast<Int128>(Gcd128(Abs128(num), UInt128(den)));
  if (g > 1) {
    num /= g;
    den /= g;
  }
  if (!FitsInt64(num) || !FitsInt64(den)) {
    return Inexact(ToDouble() + other.ToDouble());
  }
  // Already in lowest terms with den > 0: skip the constructor's Normalize.
  Rational sum;
  sum.num_ = static_cast<int64_t>(num);
  sum.den_ = static_cast<int64_t>(den);
  return sum;
}

Rational Rational::operator-(const Rational& other) const {
  Rational neg = other;
  if (neg.exact_) {
    neg.num_ = -neg.num_;
  } else {
    neg.approx_ = -neg.approx_;
  }
  return *this + neg;
}

bool Rational::operator==(const Rational& other) const {
  if (exact_ && other.exact_) {
    return num_ == other.num_ && den_ == other.den_;
  }
  return ToDouble() == other.ToDouble();
}

bool Rational::operator<(const Rational& other) const {
  if (exact_ && other.exact_) {
    return Int128(num_) * other.den_ < Int128(other.num_) * den_;
  }
  return ToDouble() < other.ToDouble();
}

std::string Rational::ToString() const {
  if (!exact_) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", approx_);
    return buf;
  }
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

}  // namespace gdlog
