// Arbitrary-precision natural numbers.
//
// The paper's bounds (β = 2^(2(2n+1)!+1), Theorem 5.9's 2^((2n+2)!), the
// fast-growing hierarchy of Theorem 4.5) overflow every machine word almost
// immediately.  BigNat provides exact arithmetic for the range where exact
// values are still representable (millions of bits); beyond that, callers
// switch to the log-domain LogNum type (lognum.hpp).
//
// Representation: little-endian vector of 32-bit limbs, no leading zero limb
// (canonical form); the empty vector is zero.  Value semantics throughout
// (regular type: default/copy/move/==).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ppsc {

class BigNat {
public:
    /// Zero.
    BigNat() = default;

    /// From a machine integer.
    BigNat(std::uint64_t value);  // NOLINT(google-explicit-constructor): numeric literal convenience

    /// Parses a base-10 string of digits. Throws std::invalid_argument on
    /// empty input or non-digit characters.
    static BigNat from_decimal(std::string_view text);

    /// 2^exponent.
    static BigNat power_of_two(std::uint64_t exponent);

    /// n! computed exactly. Throws std::overflow_error if the result would
    /// exceed `max_bits` bits (guard against runaway growth).
    static BigNat factorial(std::uint64_t n, std::uint64_t max_bits = 1u << 26);

    bool is_zero() const noexcept { return limbs_.empty(); }

    /// Number of bits in the binary representation; 0 for zero.
    std::uint64_t bit_length() const noexcept;

    /// Value as std::uint64_t. Throws std::overflow_error if it does not fit.
    std::uint64_t to_u64() const;

    /// log2 of the value as a double (for plotting / log-domain handoff).
    /// Returns -inf for zero.
    double log2_approx() const noexcept;

    BigNat& operator+=(const BigNat& rhs);
    BigNat& operator-=(const BigNat& rhs);  ///< Throws std::underflow_error if rhs > *this.
    BigNat& operator*=(const BigNat& rhs);
    BigNat& operator<<=(std::uint64_t bits);
    BigNat& operator>>=(std::uint64_t bits);

    friend BigNat operator+(BigNat lhs, const BigNat& rhs) { return lhs += rhs; }
    friend BigNat operator-(BigNat lhs, const BigNat& rhs) { return lhs -= rhs; }
    friend BigNat operator*(BigNat lhs, const BigNat& rhs) { return lhs *= rhs; }
    friend BigNat operator<<(BigNat lhs, std::uint64_t bits) { return lhs <<= bits; }
    friend BigNat operator>>(BigNat lhs, std::uint64_t bits) { return lhs >>= bits; }

    /// this^exponent (0^0 == 1). Throws std::overflow_error if the result
    /// would exceed `max_bits` bits.
    BigNat pow(std::uint64_t exponent, std::uint64_t max_bits = 1u << 26) const;

    /// Division by a machine word; returns quotient, sets `remainder`.
    /// Throws std::invalid_argument when divisor == 0.
    BigNat div_u32(std::uint32_t divisor, std::uint32_t& remainder) const;

    std::strong_ordering operator<=>(const BigNat& rhs) const noexcept;
    bool operator==(const BigNat& rhs) const noexcept = default;

    /// Base-10 rendering.
    std::string to_string() const;

    /// Compact scientific-style rendering: exact decimal when short,
    /// otherwise "≈10^k" style based on log2.
    std::string to_display_string(std::size_t max_digits = 24) const;

    const std::vector<std::uint32_t>& limbs() const noexcept { return limbs_; }

private:
    void trim() noexcept;

    std::vector<std::uint32_t> limbs_;
};

}  // namespace ppsc
