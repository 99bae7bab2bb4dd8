// Uniform scalar operations for the templated linear-algebra and Nullspace
// Algorithm kernels.
//
// Two scalar families are supported, both exact:
//   CheckedI64 - fast path, throws OverflowError when it cannot represent a
//                result (the solver retries with BigInt),
//   BigInt     - always-exact fallback.
#pragma once

#include <cstdint>
#include <string>

#include "bigint/bigint.hpp"
#include "bigint/checked.hpp"

namespace elmo {

// ---- is-zero ----
inline bool scalar_is_zero(const CheckedI64& x) { return x.is_zero(); }
inline bool scalar_is_zero(const BigInt& x) { return x.is_zero(); }

// ---- sign: -1 / 0 / +1 ----
inline int scalar_sign(const CheckedI64& x) { return x.sign(); }
inline int scalar_sign(const BigInt& x) { return x.sign(); }

// ---- conversions ----
inline CheckedI64 scalar_from_i64(std::int64_t v, const CheckedI64*) {
  return CheckedI64(v);
}
inline BigInt scalar_from_i64(std::int64_t v, const BigInt*) {
  return BigInt(v);
}

template <typename T>
T scalar_from_i64(std::int64_t v) {
  return scalar_from_i64(v, static_cast<const T*>(nullptr));
}

// Exact conversion from the archival BigInt form (checkpoint records are
// scalar-agnostic).  The CheckedI64 overload throws OverflowError when the
// value does not fit, which rides the solver's existing BigInt fallback.
inline CheckedI64 scalar_from_bigint(const BigInt& v, const CheckedI64*) {
  return CheckedI64(v.to_i64());
}
inline BigInt scalar_from_bigint(const BigInt& v, const BigInt*) { return v; }

template <typename T>
T scalar_from_bigint(const BigInt& v) {
  return scalar_from_bigint(v, static_cast<const T*>(nullptr));
}

inline double scalar_to_double(const CheckedI64& x) { return x.to_double(); }
inline double scalar_to_double(const BigInt& x) { return x.to_double(); }

inline std::string scalar_to_string(const CheckedI64& x) {
  return x.to_string();
}
inline std::string scalar_to_string(const BigInt& x) { return x.to_string(); }

// ---- gcd (for column normalisation) ----
inline CheckedI64 scalar_gcd(const CheckedI64& a, const CheckedI64& b) {
  return CheckedI64::gcd(a, b);
}
inline BigInt scalar_gcd(const BigInt& a, const BigInt& b) {
  return BigInt::gcd(a, b);
}

// ---- exact division (guaranteed-divisible in fraction-free elimination) --
inline CheckedI64 scalar_exact_div(const CheckedI64& a, const CheckedI64& b) {
  return a.exact_div(b);
}
inline BigInt scalar_exact_div(const BigInt& a, const BigInt& b) {
  return a.exact_div(b);
}

}  // namespace elmo
