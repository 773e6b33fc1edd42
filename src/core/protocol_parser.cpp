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

std::uint64_t pack_pair(StateId p, StateId q) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p)) << 32) |
           static_cast<std::uint32_t>(q);
}

/// One `trans`/`trans+` line that is not an identical duplicate.
struct RuleLine {
    std::uint64_t pre = 0;   // packed canonical pre-pair
    std::uint64_t post = 0;  // packed canonical post-pair
    std::size_t line = 0;
};

}  // namespace

Protocol parse_protocol(std::string_view text, std::vector<ParseWarning>* warnings) {
    ProtocolBuilder b;
    auto lookup = [&](std::string_view name, std::size_t line_no) -> StateId {
        const std::optional<StateId> state = b.find_state(name);
        if (!state) fail(line_no, "unknown state '" + std::string(name) + "'");
        return *state;
    };

    std::size_t line_number = 0;
    bool any_input = false;
    // Duplicate/conflict detection on `trans`/`trans+` lines, keyed on the
    // canonical pairs: every distinct (pre-pair, post-pair) rule with its
    // line, and each pre-pair's first defining rule (indexed by the
    // pre-pair's number in `pre_pairs`).  Flat tables, so a file with many
    // rules on one pair costs O(1) per line.
    std::vector<RuleLine> rules;
    FlatIndexSet rule_index;
    std::vector<std::uint32_t> first_rule;
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
            const std::string count_text(tokens[2]);
            AgentCount count = 0;
            try {
                // Full-token parse: "12x" must be rejected, not read as 12
                // (found by ppsc-lint R5 — stoll alone accepts any prefix).
                std::size_t used = 0;
                // ppsc-lint: allow(R5) full-token check directly below; a typed fail() on any violation
                count = std::stoll(count_text, &used);
                if (used != count_text.size()) fail(line_number, "count must be an integer");
            } catch (const std::invalid_argument&) {
                fail(line_number, "count must be an integer");
            } catch (const std::out_of_range&) {
                fail(line_number, "count out of range");
            }
            try {
                b.add_leaders(lookup(tokens[1], line_number), count);
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
            const std::uint64_t pre_key = pack_pair(p, q);
            const std::uint64_t post_key = pack_pair(p2, q2);
            const auto pair_text = [&] {
                return "{" + std::string(p_name) + ", " + std::string(q_name) + "}";
            };
            const auto same_pre = [&](std::uint32_t i) {
                return rules[first_rule[i]].pre == pre_key;
            };
            const std::uint32_t pre = pre_pairs.find(mix64(pre_key), same_pre);
            const bool defined = pre != FlatIndexSet::kMissing;
            if (keyword == "trans+" && !defined)
                fail(line_number, "trans+ extends pair " + pair_text() +
                                      ", which has no prior rule (use trans)");
            const auto same_rule = [&](std::uint32_t i) {
                return rules[i].pre == pre_key && rules[i].post == post_key;
            };
            const auto [rule, inserted] =
                rule_index.insert(mix64(mix64(pre_key) ^ post_key),
                                  static_cast<std::uint32_t>(rules.size()), same_rule);
            if (!inserted) {
                if (warnings != nullptr)
                    warnings->push_back({line_number, "duplicate rule for pair " + pair_text() +
                                                          " (identical to line " +
                                                          std::to_string(rules[rule].line) + ")"});
            } else if (keyword == "trans" && defined) {
                const std::size_t first_line = rules[first_rule[pre]].line;
                throw DuplicateRuleError(
                    line_number, first_line,
                    "protocol parse error, line " + std::to_string(line_number) +
                        ": conflicting redefinition of pair " + pair_text() +
                        " (first defined at line " + std::to_string(first_line) +
                        "; use trans+ to add a nondeterministic rule)");
            } else {
                rules.push_back({pre_key, post_key, line_number});
                if (!defined) {
                    pre_pairs.insert(mix64(pre_key), static_cast<std::uint32_t>(first_rule.size()),
                                     same_pre);
                    first_rule.push_back(rule);
                }
            }
            b.add_transition(p, q, p2, q2);
        } else {
            fail(line_number, "unknown keyword '" + std::string(keyword) + "'");
        }
    }
    if (!any_input) fail(line_number, "no input declaration");
    try {
        return std::move(b).build();
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
