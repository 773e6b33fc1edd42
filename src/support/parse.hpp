// The one reader of integer tokens in untrusted input: `.pp` files,
// certificate files, protocol family parameters, checkpoint slot names and
// command-line arguments all decide "is this an integer, and which" here.
//
// Grammar: an optional '+' or '-' followed by one or more ASCII decimal
// digits, and nothing else.  Leading zeros are allowed ("007" is 7, "-0"
// is 0); whitespace anywhere, a radix prefix, a decimal point, or trailing
// characters ("12x", " 3", "3 ") make the token not an integer.  A token
// of the grammar whose value lies outside [min, max] is out of range,
// which callers report separately, each with its own message.
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ppsc {

enum class ParseIntStatus { ok, not_an_integer, out_of_range };

template <std::integral Int>
struct ParsedInt {
    ParseIntStatus status = ParseIntStatus::not_an_integer;
    Int value = 0;  ///< the token's value; 0 unless status is ok

    bool ok() const noexcept { return status == ParseIntStatus::ok; }
};

/// Reads the whole of `token` as an Int within [min, max] (by default
/// Int's own range).  Never throws and never narrows.
// ppsc-lint: validated-parser (the whole token's grammar is checked before from_chars reads it)
template <std::integral Int>
ParsedInt<Int> parse_integer(std::string_view token,
                             std::type_identity_t<Int> min = std::numeric_limits<Int>::min(),
                             std::type_identity_t<Int> max = std::numeric_limits<Int>::max()) {
    const bool negative = token.starts_with('-');
    const std::string_view digits = token.substr(negative || token.starts_with('+') ? 1 : 0);
    if (digits.empty() || digits.find_first_not_of("0123456789") != std::string_view::npos)
        return {};
    // from_chars reads a signed type's '-' itself; of an unsigned type
    // only "-0" (the digits read as 0) is in range.
    const std::string_view text = negative && std::is_signed_v<Int> ? token : digits;
    Int value = 0;
    if (std::from_chars(text.data(), text.data() + text.size(), value).ec != std::errc{} ||
        (negative && value > 0) || value < min || value > max)
        return {ParseIntStatus::out_of_range};
    return {ParseIntStatus::ok, value};
}

}  // namespace ppsc
