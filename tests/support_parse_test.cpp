// Tests for parse_integer, the one reader of integer tokens in untrusted
// input: the token grammar, and each type's bounds ±1.
#include "support/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ppsc {
namespace {

constexpr ParseIntStatus kOk = ParseIntStatus::ok;
constexpr ParseIntStatus kNotInt = ParseIntStatus::not_an_integer;
constexpr ParseIntStatus kRange = ParseIntStatus::out_of_range;

template <typename Int>
struct Case {
    std::string_view token;
    ParseIntStatus status;
    Int value;  // expected value; 0 unless status is ok
};

template <typename Int>
void expect_cases(const std::vector<Case<Int>>& cases) {
    for (const Case<Int>& c : cases) {
        const ParsedInt<Int> parsed = parse_integer<Int>(c.token);
        EXPECT_EQ(parsed.status, c.status) << "token '" << c.token << "'";
        EXPECT_EQ(parsed.value, c.value) << "token '" << c.token << "'";
    }
}

TEST(ParseInteger, Int64Bounds) {
    expect_cases<std::int64_t>({
        {"9223372036854775807", kOk, INT64_MAX},
        {"9223372036854775808", kRange, 0},
        {"-9223372036854775808", kOk, INT64_MIN},
        {"-9223372036854775809", kRange, 0},
        {"99999999999999999999999", kRange, 0},
    });
}

TEST(ParseInteger, Int32Bounds) {
    expect_cases<std::int32_t>({
        {"2147483647", kOk, INT32_MAX},
        {"2147483648", kRange, 0},
        {"-2147483648", kOk, INT32_MIN},
        {"-2147483649", kRange, 0},
        {"4294967297", kRange, 0},
    });
}

TEST(ParseInteger, Uint64Bounds) {
    expect_cases<std::uint64_t>({
        {"18446744073709551615", kOk, UINT64_MAX},
        {"18446744073709551616", kRange, 0},
        {"0", kOk, 0},
        {"-0", kOk, 0},
        {"-1", kRange, 0},
        {"+1", kOk, 1},
    });
}

TEST(ParseInteger, SignsAndLeadingZeros) {
    expect_cases<std::int64_t>({
        {"0", kOk, 0},
        {"-0", kOk, 0},
        {"+0", kOk, 0},
        {"+7", kOk, 7},
        {"-7", kOk, -7},
        {"007", kOk, 7},
        {"-007", kOk, -7},
        {"+00000000000000000000000000042", kOk, 42},
    });
}

TEST(ParseInteger, RejectsEverythingButSignAndDigits) {
    expect_cases<std::int64_t>({
        {"", kNotInt, 0},
        {"-", kNotInt, 0},
        {"+", kNotInt, 0},
        {" 3", kNotInt, 0},
        {"3 ", kNotInt, 0},
        {"\t3", kNotInt, 0},
        {"12x", kNotInt, 0},
        {"x12", kNotInt, 0},
        {"--1", kNotInt, 0},
        {"+-1", kNotInt, 0},
        {"- 1", kNotInt, 0},
        {"0x10", kNotInt, 0},
        {"1.5", kNotInt, 0},
        {"1e3", kNotInt, 0},
        {"1,000", kNotInt, 0},
    });
    // The grammar is checked before the range: a non-integer past the
    // type's range is still not an integer.
    EXPECT_EQ(parse_integer<std::int32_t>("99999999999x").status, kNotInt);
    EXPECT_EQ(parse_integer<std::uint64_t>("-x").status, kNotInt);
}

TEST(ParseInteger, CallerRange) {
    const std::vector<std::pair<std::string_view, ParseIntStatus>> cases = {
        {"1", kRange}, {"2", kOk}, {"3", kOk}, {"4", kRange}, {"-3", kRange}, {"3x", kNotInt},
    };
    for (const auto& [token, status] : cases)
        EXPECT_EQ((parse_integer<std::size_t>(token, 2, 3).status), status)
            << "token '" << token << "'";
    EXPECT_EQ((parse_integer<std::int64_t>("-5", -5, -1).value), -5);
}

TEST(ParseInteger, ReadsOnlyTheViewedCharacters) {
    // A view into a longer buffer: the characters past its end are not read.
    const std::string buffer = "12345";
    EXPECT_EQ(parse_integer<int>(std::string_view(buffer).substr(0, 2)).value, 12);
    EXPECT_EQ(parse_integer<int>(std::string_view(buffer).substr(1, 3)).value, 234);
}

}  // namespace
}  // namespace ppsc
