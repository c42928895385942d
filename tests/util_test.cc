// Unit tests for the util substrate: Status/Result, Value, Interner, Rng,
// hashing, Rational/Prob arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <unordered_set>

#include "util/hash.h"
#include "util/interner.h"
#include "util/prob.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/value.h"

namespace gdlog {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad rule");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad rule");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad rule");
}

TEST(Status, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kUnsafeProgram, StatusCode::kNotStratified,
        StatusCode::kBudgetExhausted, StatusCode::kUnsupported,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsStatus) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Doubled(Result<int> in) {
  GDLOG_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  auto err = Doubled(Status::Internal("boom"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int(-7).int_value(), -7);
  EXPECT_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::Symbol(3).symbol_id(), 3u);
}

TEST(Value, EqualityIsStructural) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Double(1.0));  // identity, not numeric
  EXPECT_NE(Value::Int(1), Value::Bool(true));
  EXPECT_NE(Value::Symbol(1), Value::Int(1));
}

TEST(Value, AsRealTranslation) {
  EXPECT_EQ(Value::Bool(true).AsReal(), 1.0);
  EXPECT_EQ(Value::Int(-3).AsReal(), -3.0);
  EXPECT_EQ(Value::Double(0.25).AsReal(), 0.25);
  EXPECT_EQ(Value::Symbol(9).AsReal(), 9.0);
}

TEST(Value, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(5).Hash(), Value::Int(5).Hash());
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Double(-0.0).Hash());
  EXPECT_EQ(Value::Double(0.0), Value::Double(-0.0));
}

TEST(Value, TotalOrderIsStrict) {
  std::vector<Value> vals = {Value::Bool(false), Value::Bool(true),
                             Value::Int(-1),     Value::Int(3),
                             Value::Double(0.5), Value::Symbol(0)};
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_FALSE(vals[i] < vals[i]);
    for (size_t j = i + 1; j < vals.size(); ++j) {
      EXPECT_NE(vals[i] < vals[j], vals[j] < vals[i]);
    }
  }
}

TEST(Value, ToStringRendering) {
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Double(0.5).ToString(), "0.5");
  Interner interner;
  uint32_t id = interner.Intern("alice");
  EXPECT_EQ(Value::Symbol(id).ToString(&interner), "alice");
}

TEST(Tuple, HashAndEquality) {
  Tuple a = {Value::Int(1), Value::Symbol(2)};
  Tuple b = {Value::Int(1), Value::Symbol(2)};
  Tuple c = {Value::Symbol(2), Value::Int(1)};
  EXPECT_EQ(HashTuple(a), HashTuple(b));
  EXPECT_NE(a, c);
  std::unordered_set<Tuple, TupleHash> set;
  set.insert(a);
  EXPECT_TRUE(set.count(b));
  EXPECT_FALSE(set.count(c));
}

// ---------------------------------------------------------------------------
// Interner
// ---------------------------------------------------------------------------

TEST(Interner, InternIsIdempotent) {
  Interner interner;
  uint32_t a = interner.Intern("foo");
  uint32_t b = interner.Intern("foo");
  uint32_t c = interner.Intern("bar");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(interner.Name(a), "foo");
  EXPECT_EQ(interner.Name(c), "bar");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(Interner, LookupDoesNotIntern) {
  Interner interner;
  EXPECT_EQ(interner.Lookup("ghost"), Interner::kNotFound);
  EXPECT_EQ(interner.size(), 0u);
  uint32_t id = interner.Intern("ghost");
  EXPECT_EQ(interner.Lookup("ghost"), id);
}

TEST(Interner, IdsAreDense) {
  Interner interner;
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(interner.Intern("s" + std::to_string(i)), i);
  }
}

TEST(Interner, CloneOutlivesItsSource) {
  // The index keys on views into the interner's own strings; a clone must
  // re-key on its copies, or these lookups read freed memory (ASan job).
  auto source = std::make_unique<Interner>();
  // Long names defeat the small-string buffer, so they live on the heap.
  const std::string long_name(64, 'x');
  uint32_t a = source->Intern("a");
  uint32_t x = source->Intern(long_name);
  std::shared_ptr<Interner> clone = source->Clone();
  source.reset();
  EXPECT_EQ(clone->Lookup("a"), a);
  EXPECT_EQ(clone->Lookup(long_name), x);
  EXPECT_EQ(clone->Lookup("ghost"), Interner::kNotFound);
  EXPECT_EQ(clone->Name(x), long_name);
  // The clone stays an independent, growable table.
  uint32_t b = clone->Intern("b");
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(clone->Lookup("b"), b);
}

TEST(Interner, LookupTakesAnyStringView) {
  Interner interner;
  uint32_t id = interner.Intern("pred");
  const std::string text = "xpredx";
  EXPECT_EQ(interner.Lookup(std::string_view(text).substr(1, 4)), id);
  EXPECT_EQ(interner.Lookup(std::string_view(text).substr(0, 4)),
            Interner::kNotFound);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoundedIsUniformish) {
  Rng rng(99);
  constexpr uint64_t kBound = 10;
  std::vector<int> counts(kBound, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBound)];
  for (uint64_t v = 0; v < kBound; ++v) {
    EXPECT_NEAR(counts[v], kDraws / static_cast<int>(kBound),
                5 * std::sqrt(kDraws / static_cast<double>(kBound)));
  }
}

TEST(Rng, BoundedEdgeCases) {
  Rng rng(1);
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Hash, Mix64Avalanches) {
  // Flipping one input bit flips roughly half the output bits.
  uint64_t base = Mix64(0x1234);
  int differing = __builtin_popcountll(base ^ Mix64(0x1235));
  EXPECT_GT(differing, 16);
  EXPECT_LT(differing, 48);
}

// ---------------------------------------------------------------------------
// Rational / Prob
// ---------------------------------------------------------------------------

TEST(Rational, NormalizesOnConstruction) {
  Rational r(2, 4);
  EXPECT_EQ(r.numerator(), 1);
  EXPECT_EQ(r.denominator(), 2);
  Rational neg(3, -6);
  EXPECT_EQ(neg.numerator(), -1);
  EXPECT_EQ(neg.denominator(), 2);
}

TEST(Rational, FromDecimalExactForShortDecimals) {
  Rational r = Rational::FromDecimal(0.1);
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r, Rational(1, 10));
  EXPECT_EQ(Rational::FromDecimal(0.25), Rational(1, 4));
  EXPECT_EQ(Rational::FromDecimal(1.0), Rational::One());
  EXPECT_EQ(Rational::FromDecimal(0.0), Rational::Zero());
}

TEST(Rational, FromDecimalInexactForIrrational) {
  Rational pi = Rational::FromDecimal(M_PI);
  EXPECT_FALSE(pi.exact());
  EXPECT_DOUBLE_EQ(pi.ToDouble(), M_PI);
}

TEST(Rational, ArithmeticStaysExact) {
  Rational a(1, 10), b(9, 10);
  EXPECT_EQ(a * b, Rational(9, 100));
  EXPECT_EQ(a + b, Rational::One());
  EXPECT_EQ(b - a, Rational(4, 5));
  // 0.9^2 = 81/100 — the paper's Example 3.10 value.
  EXPECT_EQ(b * b, Rational(81, 100));
  EXPECT_EQ(Rational::One() - b * b, Rational(19, 100));
}

TEST(Rational, ComparisonIsExact) {
  EXPECT_LT(Rational(1, 3), Rational(34, 100));
  EXPECT_LT(Rational(33, 100), Rational(1, 3));
  EXPECT_FALSE(Rational(1, 3) < Rational(1, 3));
}

TEST(Rational, OverflowFallsBackToInexact) {
  Rational tiny(1, 1000000007);  // prime denominator
  Rational acc = Rational::One();
  for (int i = 0; i < 5; ++i) acc = acc * tiny;
  // 1000000007^5 overflows int64: result must be inexact but numerically
  // close.
  EXPECT_FALSE(acc.exact());
  EXPECT_NEAR(acc.ToDouble(), std::pow(1e-9, 5), 1e-47);
}

// operator+ as it was before the binary-gcd rewrite (Euclid over signed
// 128-bit values, then the normalizing constructor), with the private
// members spelled through the public accessors.
Rational EuclidSum(const Rational& a, const Rational& b) {
  using Int128 = __int128;
  if (!a.exact() || !b.exact()) {
    return Rational::Approx(a.ToDouble() + b.ToDouble());
  }
  Int128 num = Int128(a.numerator()) * b.denominator() +
               Int128(b.numerator()) * a.denominator();
  Int128 den = Int128(a.denominator()) * b.denominator();
  Int128 x = num < 0 ? -num : num;
  Int128 y = den;
  while (y != 0) {
    Int128 t = x % y;
    x = y;
    y = t;
  }
  Int128 g = x;
  if (g > 1) {
    num /= g;
    den /= g;
  }
  if (num > INT64_MAX || num < INT64_MIN || den > INT64_MAX ||
      den < INT64_MIN) {
    return Rational::Approx(a.ToDouble() + b.ToDouble());
  }
  return Rational(static_cast<int64_t>(num), static_cast<int64_t>(den));
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

void ExpectSameSum(const Rational& a, const Rational& b) {
  Rational want = EuclidSum(a, b);
  Rational got = a + b;
  SCOPED_TRACE(a.ToString() + " + " + b.ToString());
  ASSERT_EQ(got.exact(), want.exact());
  ASSERT_EQ(got.numerator(), want.numerator());
  ASSERT_EQ(got.denominator(), want.denominator());
  ASSERT_EQ(DoubleBits(got.ToDouble()), DoubleBits(want.ToDouble()));
}

TEST(Rational, SumMatchesEuclidReferenceOnSeededPairs) {
  std::mt19937_64 rng(0x5eed2718);
  auto below = [&](uint64_t n) { return static_cast<int64_t>(rng() % n); };
  auto signed_below = [&](uint64_t n) {
    int64_t v = below(n);
    return rng() % 2 ? -v : v;
  };
  auto pow10 = [](int k) {
    int64_t p = 1;
    while (k-- > 0) p *= 10;
    return p;
  };
  // One operand of the given shape, with denominator `den` where the shape
  // takes it from its partner.
  auto operand = [&](int shape, int64_t den) -> Rational {
    switch (shape) {
      case 0: return Rational(0, 1 + below(1000));               // zero
      case 1: return Rational(signed_below(1000), 1 + below(1000));
      case 2: {  // a probability over a power of ten, like 0.1 or 0.25
        int64_t d = pow10(static_cast<int>(below(10)));
        return Rational(below(d + 1), d);
      }
      case 3: return Rational(signed_below(1u << 20), den);  // equal den
      case 4: {  // divisible denominators
        int64_t factor = 1 + below(1000);
        return den <= INT64_MAX / factor
                   ? Rational(signed_below(1u << 20), den * factor)
                   : Rational(1, den);
      }
      case 5:  // near the 64-bit edge: sums overflow into inexact
        return Rational(signed_below(INT64_MAX), 1 + below(INT64_MAX));
      case 6: return Rational::Approx(std::ldexp(
                  static_cast<double>(signed_below(1u << 30)), -30));
      default: return Rational(INT64_MAX, 1 + below(3));
    }
  };
  for (int i = 0; i < 50000 && !HasFailure(); ++i) {
    Rational a = operand(static_cast<int>(below(8)), 1);
    Rational b = operand(static_cast<int>(below(8)),
                         a.exact() ? a.denominator() : 1);
    ExpectSameSum(a, b);
    ExpectSameSum(b, a);
    ExpectSameSum(a, Rational(-a.numerator(), a.denominator()));
  }
  // Running sums of path masses, as the merge accumulates them: powers of
  // flip<0.123456789> overflow 64 bits within a few terms.
  Rational p = Rational::FromDecimal(0.123456789);
  Rational q = Rational::One() - p;
  Rational acc = Rational::Zero();
  Rational term = Rational::One();
  for (int k = 0; k < 64; ++k) {
    Rational next = term * (k % 2 ? p : q);
    ExpectSameSum(acc, next);
    acc = acc + next;
    term = next;
  }
  EXPECT_FALSE(acc.exact());
}

TEST(Rational, ToStringRendering) {
  EXPECT_EQ(Rational(19, 100).ToString(), "19/100");
  EXPECT_EQ(Rational(4, 2).ToString(), "2");
  EXPECT_EQ(Rational::Zero().ToString(), "0");
}

TEST(Prob, ProductMatchesPaperExample) {
  Prob p = Prob::FromDouble(0.9) * Prob::FromDouble(0.9);
  EXPECT_TRUE(p.exact());
  EXPECT_EQ(p, Prob(Rational(81, 100)));
  EXPECT_EQ(Prob::One() - p, Prob(Rational(19, 100)));
}

TEST(Prob, SumOfManySmallStaysExact) {
  Prob total = Prob::Zero();
  for (int i = 0; i < 64; ++i) total = total + Prob(Rational(1, 64));
  EXPECT_EQ(total, Prob::One());
  EXPECT_TRUE(total.exact());
}

class ProbPowerTest : public ::testing::TestWithParam<int> {};

TEST_P(ProbPowerTest, GeometricMassesSumBelowOne) {
  // (1-p)^k p summed for k < n stays below 1 and approaches it.
  int n = GetParam();
  Prob p = Prob(Rational(1, 2));
  Prob q = Prob::One() - p;
  Prob acc = Prob::Zero();
  Prob qk = Prob::One();
  for (int k = 0; k < n; ++k) {
    acc = acc + qk * p;
    qk = qk * q;
  }
  EXPECT_LT(acc.value(), 1.0);
  EXPECT_NEAR(acc.value(), 1.0 - std::pow(0.5, n), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Depths, ProbPowerTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 50));

}  // namespace
}  // namespace gdlog
