// Exact rational numbers over an integer scalar (CheckedI64 or BigInt).
//
// Always stored normalised: gcd(num, den) == 1 and den > 0.  Rationals are
// used where true division is unavoidable — reduced row echelon form for the
// initial nullspace basis and the network-compression reconstruction map —
// after which columns are rescaled to integer vectors.
#pragma once

#include <compare>
#include <string>

#include "bigint/bigint.hpp"
#include "bigint/checked.hpp"
#include "bigint/scalar.hpp"
#include "support/error.hpp"

namespace elmo {

template <typename Int>
class Rational {
 public:
  Rational() : num_(scalar_from_i64<Int>(0)), den_(scalar_from_i64<Int>(1)) {}

  Rational(Int numerator)  // NOLINT(google-explicit-constructor)
      : num_(std::move(numerator)), den_(scalar_from_i64<Int>(1)) {}

  Rational(Int numerator, Int denominator)
      : num_(std::move(numerator)), den_(std::move(denominator)) {
    if (scalar_is_zero(den_))
      throw InvalidArgumentError("Rational: zero denominator");
    normalize();
  }

  static Rational from_i64(std::int64_t n, std::int64_t d = 1) {
    return Rational(scalar_from_i64<Int>(n), scalar_from_i64<Int>(d));
  }

  [[nodiscard]] const Int& num() const { return num_; }
  [[nodiscard]] const Int& den() const { return den_; }
  [[nodiscard]] bool is_zero() const { return scalar_is_zero(num_); }
  [[nodiscard]] bool is_integer() const {
    return den_ == scalar_from_i64<Int>(1);
  }
  [[nodiscard]] int sign() const { return scalar_sign(num_); }

  [[nodiscard]] double to_double() const {
    return scalar_to_double(num_) / scalar_to_double(den_);
  }

  [[nodiscard]] std::string to_string() const {
    if (is_integer()) return scalar_to_string(num_);
    return scalar_to_string(num_) + "/" + scalar_to_string(den_);
  }

  [[nodiscard]] Rational operator-() const {
    Rational r;
    r.num_ = -num_;
    r.den_ = den_;
    return r;
  }

  [[nodiscard]] Rational reciprocal() const {
    if (is_zero())
      throw InvalidArgumentError("Rational: reciprocal of zero");
    return Rational(den_, num_);
  }

  Rational& operator+=(const Rational& rhs) {
    num_ = num_ * rhs.den_ + rhs.num_ * den_;
    den_ = den_ * rhs.den_;
    normalize();
    return *this;
  }
  Rational& operator-=(const Rational& rhs) {
    num_ = num_ * rhs.den_ - rhs.num_ * den_;
    den_ = den_ * rhs.den_;
    normalize();
    return *this;
  }
  Rational& operator*=(const Rational& rhs) {
    num_ = num_ * rhs.num_;
    den_ = den_ * rhs.den_;
    normalize();
    return *this;
  }
  Rational& operator/=(const Rational& rhs) {
    if (rhs.is_zero())
      throw InvalidArgumentError("Rational: division by zero");
    num_ = num_ * rhs.den_;
    den_ = den_ * rhs.num_;
    normalize();
    return *this;
  }

  friend Rational operator+(Rational a, const Rational& b) { return a += b; }
  friend Rational operator-(Rational a, const Rational& b) { return a -= b; }
  friend Rational operator*(Rational a, const Rational& b) { return a *= b; }
  friend Rational operator/(Rational a, const Rational& b) { return a /= b; }

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& a,
                                          const Rational& b) {
    // Cross-multiply; denominators are positive by invariant.
    Int lhs = a.num_ * b.den_;
    Int rhs = b.num_ * a.den_;
    return lhs <=> rhs;
  }

 private:
  void normalize() {
    if (scalar_is_zero(num_)) {
      num_ = scalar_from_i64<Int>(0);
      den_ = scalar_from_i64<Int>(1);
      return;
    }
    if (scalar_sign(den_) < 0) {
      num_ = -num_;
      den_ = -den_;
    }
    Int g = scalar_gcd(num_, den_);
    if (!(g == scalar_from_i64<Int>(1))) {
      num_ = scalar_exact_div(num_, g);
      den_ = scalar_exact_div(den_, g);
    }
  }

  Int num_;
  Int den_;
};

using RationalI64 = Rational<CheckedI64>;
using BigRational = Rational<BigInt>;

// Scalar-trait overloads so Rational can be used by the templated kernels.
template <typename Int>
bool scalar_is_zero(const Rational<Int>& x) {
  return x.is_zero();
}
template <typename Int>
int scalar_sign(const Rational<Int>& x) {
  return x.sign();
}
template <typename Int>
Rational<Int> scalar_from_i64(std::int64_t v, const Rational<Int>*) {
  return Rational<Int>::from_i64(v);
}
template <typename Int>
std::string scalar_to_string(const Rational<Int>& x) {
  return x.to_string();
}
template <typename Int>
Rational<Int> scalar_gcd(const Rational<Int>&, const Rational<Int>&) {
  // Rationals form a field; gcd is not meaningful for normalisation.
  return Rational<Int>::from_i64(1);
}
template <typename Int>
Rational<Int> scalar_exact_div(const Rational<Int>& a,
                               const Rational<Int>& b) {
  Rational<Int> r = a;
  r /= b;
  return r;
}

}  // namespace elmo
