#include "protocols/families.hpp"

#include <array>
#include <sstream>
#include <stdexcept>

#include "protocols/double_exp_threshold.hpp"
#include "protocols/leader.hpp"
#include "protocols/majority.hpp"
#include "protocols/threshold.hpp"
#include "support/bignat.hpp"
#include "support/parse.hpp"

namespace ppsc::protocols {

namespace {

// Parameter ranges mirror the validation inside each builder — the builder
// remains the source of truth and still throws on out-of-range values; the
// registry only documents the ranges.
constexpr std::array<ProtocolFamily, 9> kFamilies = {{
    {"unary", 1, "<eta>", "1 <= eta <= 2^10", "x >= eta with eta + 1 states (Section 2 baseline)", "3"},
    {"binary", 1, "<k>", "0 <= k <= 40", "x >= 2^k via doubling tokens, k + 2 states", "3"},
    {"collector", 1, "<eta>", "1 <= eta < 2^40",
     "x >= eta with O(log eta) states (succinct collector)", "5"},
    {"majority", 0, "", "no parameters", "2-input majority: is x >= y?", ""},
    {"leader", 1, "<eta>", "1 <= eta <= 2^20", "x >= eta with a leader agent driving the count", "3"},
    {"cascade", 2, "<base> <digits>", "base >= 2, digits >= 1, base^digits <= 2^20",
     "leader-driven base-ary counter cascade deciding x >= base^digits", "3 2"},
    {"double_exp", 1, "<n>", "0 <= n <= 17",
     "x >= 2^(2^n) with 2^n + 3 states (E11 flagship; sparse rule table past ~4k states)", "2"},
    {"double_exp_dense", 1, "<n>", "1 <= n <= 13",
     "x >= 2^(2^n) - 1: a collector per bit, Theta(4^n) non-silent pairs", "2"},
    {"succinct", 1, "<eta>", "eta >= 1, decimal, up to 2^17 + 1 bits",
     "x >= eta for arbitrary-precision eta with O(log eta) states", "19"},
}};

/// The whole parameter as an Int (support/parse.hpp), else a typed error.
template <typename Int = long long>
Int parse_int(std::string_view family, std::string_view value) {
    const ParsedInt<Int> parsed = parse_integer<Int>(value);
    if (parsed.ok()) return parsed.value;
    throw std::invalid_argument(
        "family " + std::string(family) + ": parameter '" + std::string(value) + "' is " +
        (parsed.status == ParseIntStatus::out_of_range ? "out of range" : "not an integer"));
}

}  // namespace

std::span<const ProtocolFamily> protocol_families() { return kFamilies; }

Protocol build_family(std::string_view name, std::span<const std::string> args) {
    const ProtocolFamily* family = nullptr;
    for (const ProtocolFamily& f : kFamilies) {
        if (name == f.name) {
            family = &f;
            break;
        }
    }
    if (family == nullptr)
        throw std::invalid_argument("unknown family '" + std::string(name) + "'; known:\n" +
                                    family_usage());

    const auto arity = static_cast<std::size_t>(family->arity);
    if (args.size() != arity)
        throw std::invalid_argument("family " + std::string(name) + ": expected " +
                                    std::to_string(arity) + " parameter(s) (" + family->params +
                                    ", " + family->range + "), got " +
                                    std::to_string(args.size()));

    if (name == "unary") return unary_threshold(parse_int(name, args[0]));
    if (name == "binary") return binary_threshold_power(parse_int<int>(name, args[0]));
    if (name == "collector") return collector_threshold(parse_int(name, args[0]));
    if (name == "majority") return majority();
    if (name == "leader") return leader_threshold(parse_int(name, args[0]));
    if (name == "cascade")
        return leader_counter_cascade(parse_int<int>(name, args[0]), parse_int<int>(name, args[1]));
    if (name == "double_exp") return double_exp_threshold(parse_int<int>(name, args[0]));
    if (name == "double_exp_dense")
        return double_exp_threshold_dense(parse_int<int>(name, args[0]));
    if (name == "succinct") return succinct_threshold(BigNat::from_decimal(args[0]));
    throw std::logic_error("protocol family registered but not dispatched: " +
                           std::string(name));
}

std::string family_usage() {
    std::ostringstream os;
    for (const ProtocolFamily& f : kFamilies) {
        os << "  " << f.name;
        if (f.params[0] != '\0') os << ' ' << f.params;
        os << "\n      " << f.summary << " (" << f.range << ")\n";
    }
    return os.str();
}

}  // namespace ppsc::protocols
