#include "core/protocol_parser.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/hash.hpp"
#include "support/parse.hpp"

namespace ppsc {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
    throw std::invalid_argument("protocol parse error, line " + std::to_string(line) + ": " +
                                message);
}

/// The tokens of one line, as views into it, up to a token starting with
/// '#' (a comment until end of line).  No statement has more than six
/// tokens, so a seventh is kept only to make the count wrong.
struct Tokens {
    std::array<std::string_view, 7> token;
    std::size_t size = 0;

    std::string_view operator[](std::size_t i) const { return token[i]; }
};

Tokens tokenize(std::string_view line) {
    Tokens tokens;
    std::size_t i = 0;
    while (tokens.size < tokens.token.size()) {
        while (i < line.size() && is_text_space(line[i])) ++i;
        if (i == line.size() || line[i] == '#') break;
        const std::size_t begin = i;
        while (i < line.size() && !is_text_space(line[i])) ++i;
        tokens.token[tokens.size++] = line.substr(begin, i - begin);
    }
    return tokens;
}

/// A pre-pair some `trans` line names: the line that first defined it and
/// the line of its silent rule (0 if none).  Silent rules never reach the
/// builder, so the parser tracks them here.
struct PrePair {
    std::uint64_t key = 0;  // Protocol::pack_pair of the canonical pair
    std::size_t first_line = 0;
    std::size_t silent_line = 0;
};

}  // namespace

Protocol parse_protocol(std::string_view text, ParseReport* report) {
    ProtocolBuilder b;
    auto lookup = [&](std::string_view name, std::size_t line_no) -> StateId {
        const std::optional<StateId> state = b.find_state(name);
        if (!state) fail(line_no, "unknown state '" + std::string(name) + "'");
        return *state;
    };

    std::size_t line_number = 0;
    bool any_input = false;
    // Duplicate/conflict detection on `trans`/`trans+` lines costs O(1) per
    // line, so a file with many rules on one pair parses in linear time:
    // the builder finds an identical non-silent rule (add_transition returns
    // its id), and `pre_pairs` files each pre-pair's PrePair entry.
    ParseReport found;
    std::vector<PrePair> pairs;
    FlatIndexSet pre_pairs;
    for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t newline = std::min(text.find('\n', pos), text.size());
        const Tokens tokens = tokenize(text.substr(pos, newline - pos));
        pos = newline + 1;
        ++line_number;
        if (tokens.size == 0) continue;
        const std::string_view keyword = tokens[0];
        if (keyword == "state") {
            if (tokens.size != 3) fail(line_number, "expected: state <name> <0|1>");
            if (tokens[2] != "0" && tokens[2] != "1") fail(line_number, "output must be 0 or 1");
            try {
                b.add_state(std::string(tokens[1]), tokens[2] == "1" ? 1 : 0);
                found.state_line.push_back(line_number);
            } catch (const std::invalid_argument& e) {
                fail(line_number, e.what());
            }
        } else if (keyword == "input") {
            if (tokens.size != 4 || tokens[2] != "->")
                fail(line_number, "expected: input <var> -> <state>");
            try {
                b.set_input(std::string(tokens[1]), lookup(tokens[3], line_number));
            } catch (const std::invalid_argument& e) {
                fail(line_number, e.what());
            }
            any_input = true;
        } else if (keyword == "leaders") {
            if (tokens.size != 3) fail(line_number, "expected: leaders <state> <count>");
            const ParsedInt<AgentCount> count = parse_integer<AgentCount>(tokens[2]);
            if (count.status == ParseIntStatus::not_an_integer)
                fail(line_number, "count must be an integer");
            if (!count.ok()) fail(line_number, "count out of range");
            try {
                b.add_leaders(lookup(tokens[1], line_number), count.value);
            } catch (const std::invalid_argument& e) {
                fail(line_number, e.what());
            }
        } else if (keyword == "trans" || keyword == "trans+") {
            if (tokens.size != 6 || tokens[3] != "->")
                fail(line_number,
                     "expected: " + std::string(keyword) + " <p> <q> -> <p'> <q'>");
            StateId p = lookup(tokens[1], line_number);
            StateId q = lookup(tokens[2], line_number);
            StateId p2 = lookup(tokens[4], line_number);
            StateId q2 = lookup(tokens[5], line_number);
            // `trans` defines a pre-pair; `trans+` explicitly adds a further
            // (nondeterministic) rule to an already-defined pre-pair.  A
            // plain `trans` re-targeting a defined pair is overwhelmingly a
            // typo, not intent — a typed error.  Canonicalise both sides
            // exactly as ProtocolBuilder does before comparing.
            std::string_view p_name = tokens[1], q_name = tokens[2];
            if (p > q) {
                std::swap(p, q);
                std::swap(p_name, q_name);
            }
            if (p2 > q2) std::swap(p2, q2);
            const auto pair_text = [&] {
                return "{" + std::string(p_name) + ", " + std::string(q_name) + "}";
            };
            const std::uint64_t key = Protocol::pack_pair(p, q);
            const auto same_pre = [&](std::uint32_t i) { return pairs[i].key == key; };
            std::uint32_t pre = pre_pairs.find(mix64(key), same_pre);
            const bool defined = pre != FlatIndexSet::kMissing;
            if (keyword == "trans+" && !defined)
                fail(line_number, "trans+ extends pair " + pair_text() +
                                      ", which has no prior rule (use trans)");
            const bool silent = p == p2 && q == q2;
            std::size_t identical = 0;  // line of an identical earlier rule
            if (!silent) {
                const auto rule = static_cast<std::size_t>(b.add_transition(p, q, p2, q2));
                if (rule < found.transition_line.size())
                    identical = found.transition_line[rule];
                else
                    found.transition_line.push_back(line_number);
            } else if (defined) {
                identical = pairs[pre].silent_line;
            }
            if (identical != 0) {
                found.warnings.push_back({line_number, "duplicate rule for pair " + pair_text() +
                                                           " (identical to line " +
                                                           std::to_string(identical) + ")"});
            } else if (keyword == "trans" && defined) {
                const std::size_t first_line = pairs[pre].first_line;
                throw DuplicateRuleError(
                    line_number, first_line,
                    "protocol parse error, line " + std::to_string(line_number) +
                        ": conflicting redefinition of pair " + pair_text() +
                        " (first defined at line " + std::to_string(first_line) +
                        "; use trans+ to add a nondeterministic rule)");
            } else {
                if (!defined) {
                    pre = pre_pairs.insert(mix64(key), static_cast<std::uint32_t>(pairs.size()),
                                           same_pre).first;
                    pairs.push_back({key, line_number, 0});
                }
                if (silent) pairs[pre].silent_line = line_number;
            }
        } else {
            fail(line_number, "unknown keyword '" + std::string(keyword) + "'");
        }
    }
    if (!any_input) fail(line_number, "no input declaration");
    try {
        Protocol protocol = std::move(b).build();
        if (report != nullptr) *report = std::move(found);
        return protocol;
    } catch (const std::invalid_argument& e) {
        fail(line_number, e.what());
    }
}

std::string format_protocol(const Protocol& protocol) {
    std::ostringstream os;
    for (std::size_t q = 0; q < protocol.num_states(); ++q)
        os << "state " << protocol.state_name(static_cast<StateId>(q)) << ' '
           << protocol.output(static_cast<StateId>(q)) << '\n';
    const auto vars = protocol.input_variables();
    for (std::size_t v = 0; v < vars.size(); ++v)
        os << "input " << vars[v] << " -> " << protocol.state_name(protocol.input_state(v))
           << '\n';
    for (std::size_t q = 0; q < protocol.num_states(); ++q) {
        const AgentCount count = protocol.leaders()[static_cast<StateId>(q)];
        if (count > 0)
            os << "leaders " << protocol.state_name(static_cast<StateId>(q)) << ' ' << count
               << '\n';
    }
    // First rule of a pre-pair is `trans`; further rules (nondeterministic
    // protocols) are `trans+`, which is what keeps the serialisation
    // parseable under the parser's conflicting-redefinition check.
    const std::span<const Transition> transitions = protocol.transitions();
    for (std::size_t i = 0; i < transitions.size(); ++i) {
        const Transition& t = transitions[i];
        const bool first =
            protocol.rules_for_pair_id(protocol.pair_id(t.pre1, t.pre2))[0] ==
            static_cast<TransitionId>(i);
        os << (first ? "trans " : "trans+ ") << protocol.state_name(t.pre1) << ' '
           << protocol.state_name(t.pre2) << " -> " << protocol.state_name(t.post1) << ' '
           << protocol.state_name(t.post2) << '\n';
    }
    return os.str();
}

}  // namespace ppsc
