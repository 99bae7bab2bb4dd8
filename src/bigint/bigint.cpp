#include "bigint/bigint.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>

#include "support/assert.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"

namespace elmo {

namespace {

constexpr std::uint64_t kBase = 1ULL << 32;

}  // namespace

BigInt::BigInt(std::int64_t value) {
  if (value == 0) return;
  negative_ = value < 0;
  // Avoid UB negating INT64_MIN: work in unsigned space.
  std::uint64_t magnitude =
      negative_ ? ~static_cast<std::uint64_t>(value) + 1
                : static_cast<std::uint64_t>(value);
  limbs_.push_back(static_cast<std::uint32_t>(magnitude & 0xffffffffULL));
  if (magnitude >> 32) {
    limbs_.push_back(static_cast<std::uint32_t>(magnitude >> 32));
  }
}

BigInt BigInt::from_string(std::string_view text) {
  if (text.empty()) throw ParseError("BigInt: empty string");
  bool negative = false;
  std::size_t i = 0;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i == text.size()) throw ParseError("BigInt: sign without digits");
  BigInt result;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (c < '0' || c > '9')
      throw ParseError("BigInt: invalid digit in '" + std::string(text) + "'");
    // result = result * 10 + digit, done limb-wise to stay O(n) per digit.
    std::uint64_t carry = static_cast<std::uint64_t>(c - '0');
    for (auto& limb : result.limbs_) {
      std::uint64_t v = static_cast<std::uint64_t>(limb) * 10 + carry;
      limb = static_cast<std::uint32_t>(v & 0xffffffffULL);
      carry = v >> 32;
    }
    if (carry) result.limbs_.push_back(static_cast<std::uint32_t>(carry));
  }
  result.trim();
  result.negative_ = negative && !result.limbs_.empty();
  return result;
}

bool BigInt::fits_i64() const {
  if (limbs_.size() < 2) return true;
  if (limbs_.size() > 2) return false;
  std::uint64_t magnitude =
      (static_cast<std::uint64_t>(limbs_[1]) << 32) | limbs_[0];
  if (negative_) return magnitude <= (1ULL << 63);
  return magnitude < (1ULL << 63);
}

std::int64_t BigInt::to_i64() const {
  if (!fits_i64())
    throw OverflowError("BigInt::to_i64: value exceeds int64 range");
  if (limbs_.empty()) return 0;
  std::uint64_t magnitude = limbs_[0];
  if (limbs_.size() == 2)
    magnitude |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  if (negative_) return static_cast<std::int64_t>(~magnitude + 1);
  return static_cast<std::int64_t>(magnitude);
}

double BigInt::to_double() const {
  double value = 0.0;
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    value = value * static_cast<double>(kBase) + static_cast<double>(*it);
  }
  return negative_ ? -value : value;
}

std::string BigInt::to_string() const {
  if (limbs_.size() <= 2) {
    // Fast path: the magnitude fits a uint64_t (this covers every int64 and
    // the magnitudes above INT64_MAX up to 2^64 - 1).
    std::uint64_t magnitude = limbs_.empty() ? 0 : limbs_[0];
    if (limbs_.size() == 2)
      magnitude |= static_cast<std::uint64_t>(limbs_[1]) << 32;
    char buffer[21];  // '-' and the 20 digits of 2^64 - 1
    char* first = buffer + 1;
    char* last = std::to_chars(first, std::end(buffer), magnitude).ptr;
    if (negative_) *--first = '-';
    return {first, last};
  }
  // Repeatedly divide the magnitude by 10^9 and emit 9-digit chunks.
  std::vector<std::uint32_t> magnitude = limbs_;
  std::string digits;
  while (!magnitude.empty()) {
    std::uint64_t remainder = 0;
    for (std::size_t i = magnitude.size(); i-- > 0;) {
      std::uint64_t value = (remainder << 32) | magnitude[i];
      magnitude[i] = static_cast<std::uint32_t>(value / 1000000000ULL);
      remainder = value % 1000000000ULL;
    }
    while (!magnitude.empty() && magnitude.back() == 0) magnitude.pop_back();
    for (int i = 0; i < 9; ++i) {
      digits.push_back(static_cast<char>('0' + remainder % 10));
      remainder /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  if (!result.limbs_.empty()) result.negative_ = !result.negative_;
  return result;
}

BigInt BigInt::abs() const {
  BigInt result = *this;
  result.negative_ = false;
  return result;
}

int BigInt::compare_magnitude(const std::vector<std::uint32_t>& a,
                              const std::vector<std::uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

void BigInt::add_magnitude(std::vector<std::uint32_t>& acc,
                           const std::vector<std::uint32_t>& rhs) {
  if (acc.size() < rhs.size()) acc.resize(rhs.size(), 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    std::uint64_t sum = static_cast<std::uint64_t>(acc[i]) + carry;
    if (i < rhs.size()) sum += rhs[i];
    acc[i] = static_cast<std::uint32_t>(sum & 0xffffffffULL);
    carry = sum >> 32;
    if (carry == 0 && i >= rhs.size()) return;
  }
  if (carry) acc.push_back(static_cast<std::uint32_t>(carry));
}

void BigInt::sub_magnitude(std::vector<std::uint32_t>& acc,
                           const std::vector<std::uint32_t>& rhs) {
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(acc[i]) - borrow;
    if (i < rhs.size()) diff -= rhs[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    acc[i] = static_cast<std::uint32_t>(diff);
    if (borrow == 0 && i >= rhs.size()) break;
  }
  ELMO_DCHECK(borrow == 0, "sub_magnitude requires |acc| >= |rhs|");
  while (!acc.empty() && acc.back() == 0) acc.pop_back();
}

std::vector<std::uint32_t> BigInt::mul_magnitude(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<std::uint32_t> product(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    std::uint64_t ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::uint64_t value =
          static_cast<std::uint64_t>(product[i + j]) + ai * b[j] + carry;
      product[i + j] = static_cast<std::uint32_t>(value & 0xffffffffULL);
      carry = value >> 32;
    }
    product[i + b.size()] = static_cast<std::uint32_t>(carry);
  }
  while (!product.empty() && product.back() == 0) product.pop_back();
  return product;
}

void BigInt::divmod_magnitude(const std::vector<std::uint32_t>& dividend,
                              const std::vector<std::uint32_t>& divisor,
                              std::vector<std::uint32_t>& quotient,
                              std::vector<std::uint32_t>& remainder) {
  quotient.clear();
  remainder.clear();
  if (compare_magnitude(dividend, divisor) < 0) {
    remainder = dividend;
    return;
  }
  if (divisor.size() == 1) {
    // Single-limb fast path.
    quotient.resize(dividend.size());
    std::uint64_t rem = 0;
    std::uint64_t d = divisor[0];
    for (std::size_t i = dividend.size(); i-- > 0;) {
      std::uint64_t value = (rem << 32) | dividend[i];
      quotient[i] = static_cast<std::uint32_t>(value / d);
      rem = value % d;
    }
    while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
    if (rem) remainder.push_back(static_cast<std::uint32_t>(rem));
    return;
  }

  // Knuth TAOCP vol 2, Algorithm D.  Normalise so the divisor's top limb
  // has its high bit set.
  const std::size_t n = divisor.size();
  const std::size_t m = dividend.size() - n;
  int shift = 0;
  for (std::uint32_t top = divisor.back(); (top & 0x80000000U) == 0;
       top <<= 1) {
    ++shift;
  }

  auto shifted_left = [shift](const std::vector<std::uint32_t>& src,
                              bool extra_limb) {
    std::vector<std::uint32_t> out(src.size() + (extra_limb ? 1 : 0), 0);
    if (shift == 0) {
      std::copy(src.begin(), src.end(), out.begin());
      return out;
    }
    std::uint32_t carry = 0;
    for (std::size_t i = 0; i < src.size(); ++i) {
      out[i] = (src[i] << shift) | carry;
      carry = static_cast<std::uint32_t>(src[i] >> (32 - shift));
    }
    if (extra_limb)
      out[src.size()] = carry;
    else
      ELMO_DCHECK(carry == 0, "divisor normalisation overflow");
    return out;
  };

  std::vector<std::uint32_t> u = shifted_left(dividend, true);  // n + m + 1
  std::vector<std::uint32_t> v = shifted_left(divisor, false);  // n

  quotient.assign(m + 1, 0);
  const std::uint64_t v_top = v[n - 1];
  const std::uint64_t v_second = v[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (u[j+n]*B + u[j+n-1]) / v_top, then refine.
    std::uint64_t numerator =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t q_hat = numerator / v_top;
    std::uint64_t r_hat = numerator % v_top;
    while (q_hat >= kBase ||
           q_hat * v_second > ((r_hat << 32) | u[j + n - 2])) {
      --q_hat;
      r_hat += v_top;
      if (r_hat >= kBase) break;
    }
    // Multiply-subtract: u[j..j+n] -= q_hat * v.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t product = q_hat * v[i] + carry;
      carry = product >> 32;
      std::int64_t diff = static_cast<std::int64_t>(u[i + j]) -
                          static_cast<std::int64_t>(product & 0xffffffffULL) -
                          borrow;
      if (diff < 0) {
        diff += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<std::uint32_t>(diff);
    }
    std::int64_t top_diff = static_cast<std::int64_t>(u[j + n]) -
                            static_cast<std::int64_t>(carry) - borrow;
    if (top_diff < 0) {
      // q_hat was one too large: add back.
      top_diff += static_cast<std::int64_t>(kBase);
      --q_hat;
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum =
            static_cast<std::uint64_t>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<std::uint32_t>(sum & 0xffffffffULL);
        add_carry = sum >> 32;
      }
      top_diff += static_cast<std::int64_t>(add_carry);
      top_diff &= 0xffffffffLL;
    }
    u[j + n] = static_cast<std::uint32_t>(top_diff);
    quotient[j] = static_cast<std::uint32_t>(q_hat);
  }

  while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();

  // Denormalise the remainder (shift right).
  remainder.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  if (shift) {
    std::uint32_t carry = 0;
    for (std::size_t i = remainder.size(); i-- > 0;) {
      std::uint32_t value = remainder[i];
      remainder[i] = (value >> shift) | carry;
      carry = static_cast<std::uint32_t>(value << (32 - shift));
    }
  }
  while (!remainder.empty() && remainder.back() == 0) remainder.pop_back();
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  if (negative_ == rhs.negative_) {
    add_magnitude(limbs_, rhs.limbs_);
  } else {
    int cmp = compare_magnitude(limbs_, rhs.limbs_);
    if (cmp == 0) {
      limbs_.clear();
      negative_ = false;
    } else if (cmp > 0) {
      sub_magnitude(limbs_, rhs.limbs_);
    } else {
      std::vector<std::uint32_t> tmp = rhs.limbs_;
      sub_magnitude(tmp, limbs_);
      limbs_ = std::move(tmp);
      negative_ = rhs.negative_;
    }
  }
  trim();
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& rhs) {
  // a - b == a + (-b); avoid a temporary by toggling sign logic inline.
  BigInt negated = rhs;
  if (!negated.limbs_.empty()) negated.negative_ = !negated.negative_;
  return *this += negated;
}

BigInt& BigInt::operator*=(const BigInt& rhs) {
  bool negative = negative_ != rhs.negative_;
  limbs_ = mul_magnitude(limbs_, rhs.limbs_);
  negative_ = negative && !limbs_.empty();
  return *this;
}

void BigInt::divmod(const BigInt& dividend, const BigInt& divisor,
                    BigInt& quotient, BigInt& remainder) {
  if (divisor.is_zero())
    throw InvalidArgumentError("BigInt: division by zero");
  std::vector<std::uint32_t> q;
  std::vector<std::uint32_t> r;
  divmod_magnitude(dividend.limbs_, divisor.limbs_, q, r);
  quotient.limbs_ = std::move(q);
  quotient.negative_ =
      (dividend.negative_ != divisor.negative_) && !quotient.limbs_.empty();
  remainder.limbs_ = std::move(r);
  remainder.negative_ = dividend.negative_ && !remainder.limbs_.empty();
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  BigInt quotient;
  BigInt remainder;
  divmod(*this, rhs, quotient, remainder);
  *this = std::move(quotient);
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  BigInt quotient;
  BigInt remainder;
  divmod(*this, rhs, quotient, remainder);
  *this = std::move(remainder);
  return *this;
}

std::strong_ordering operator<=>(const BigInt& lhs, const BigInt& rhs) {
  if (lhs.negative_ != rhs.negative_) {
    return lhs.negative_ ? std::strong_ordering::less
                         : std::strong_ordering::greater;
  }
  int cmp = BigInt::compare_magnitude(lhs.limbs_, rhs.limbs_);
  if (lhs.negative_) cmp = -cmp;
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

BigInt BigInt::gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.abs();
  BigInt y = b.abs();
  while (!y.is_zero()) {
    BigInt quotient;
    BigInt remainder;
    divmod(x, y, quotient, remainder);
    x = std::move(y);
    y = std::move(remainder);
  }
  return x;
}

void BigInt::serialize(std::vector<std::uint8_t>& out) const {
  // Header byte: bit 0 = negative; remaining bits unused.  Then a 32-bit
  // limb count and the limbs, least significant first.
  codec::put_u8(out, negative_ ? 1 : 0);
  codec::put_u32(out, static_cast<std::uint32_t>(limbs_.size()));
  for (std::uint32_t limb : limbs_) codec::put_u32(out, limb);
}

BigInt BigInt::deserialize(const std::uint8_t*& cursor,
                           const std::uint8_t* end) {
  BigInt value;
  const bool negative = (codec::get_u8(cursor, end) & 1) != 0;
  const std::uint32_t count = codec::get_u32(cursor, end);
  if (count > static_cast<std::size_t>(end - cursor) / 4)
    throw ParseError("BigInt::deserialize: truncated buffer");
  value.limbs_.resize(count);
  for (std::uint32_t& limb : value.limbs_) limb = codec::get_u32(cursor, end);
  value.trim();
  value.negative_ = negative && !value.limbs_.empty();
  return value;
}

BigInt BigInt::exact_div(const BigInt& divisor) const {
  BigInt quotient;
  BigInt remainder;
  divmod(*this, divisor, quotient, remainder);
  ELMO_DCHECK(remainder.is_zero(), "exact_div: division was not exact");
  return quotient;
}

}  // namespace elmo
