#include "core/protocol_parser.hpp"

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ppsc {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
    throw std::invalid_argument("protocol parse error, line " + std::to_string(line) + ": " +
                                message);
}

std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string token;
    while (is >> token) {
        if (token.front() == '#') break;  // comment until end of line
        tokens.push_back(token);
    }
    return tokens;
}

}  // namespace

Protocol parse_protocol(std::string_view text, std::vector<ParseWarning>* warnings) {
    ProtocolBuilder b;
    // ProtocolBuilder has no name lookup pre-build: `names` maps ids back to
    // names for messages, `state_of` names to ids (hashed, so a `trans` line
    // costs O(1) instead of O(|Q|)).
    std::vector<std::string> names;
    std::unordered_map<std::string, StateId> state_of;
    auto lookup = [&](const std::string& name, std::size_t line_no) -> StateId {
        const auto it = state_of.find(name);
        if (it == state_of.end()) fail(line_no, "unknown state '" + name + "'");
        return it->second;
    };

    std::istringstream input{std::string(text)};
    std::string line;
    std::size_t line_number = 0;
    bool any_input = false;
    // Canonical pre-pair -> [(canonical post-pair, defining line)...], for
    // the duplicate/conflict detection on `trans`/`trans+` lines.
    std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::size_t>>>
        seen_rules;
    while (std::getline(input, line)) {
        ++line_number;
        const std::vector<std::string> tokens = tokenize(line);
        if (tokens.empty()) continue;
        const std::string& keyword = tokens[0];
        if (keyword == "state") {
            if (tokens.size() != 3) fail(line_number, "expected: state <name> <0|1>");
            if (tokens[2] != "0" && tokens[2] != "1") fail(line_number, "output must be 0 or 1");
            StateId id = 0;
            try {
                id = b.add_state(tokens[1], tokens[2] == "1" ? 1 : 0);
            } catch (const std::invalid_argument& e) {
                fail(line_number, e.what());
            }
            names.push_back(tokens[1]);
            state_of.emplace(tokens[1], id);
        } else if (keyword == "input") {
            if (tokens.size() != 4 || tokens[2] != "->")
                fail(line_number, "expected: input <var> -> <state>");
            try {
                b.set_input(tokens[1], lookup(tokens[3], line_number));
            } catch (const std::invalid_argument& e) {
                fail(line_number, e.what());
            }
            any_input = true;
        } else if (keyword == "leaders") {
            if (tokens.size() != 3) fail(line_number, "expected: leaders <state> <count>");
            AgentCount count = 0;
            try {
                // Full-token parse: "12x" must be rejected, not read as 12
                // (found by ppsc-lint R5 — stoll alone accepts any prefix).
                std::size_t used = 0;
                // ppsc-lint: allow(R5) full-token check directly below; a typed fail() on any violation
                count = std::stoll(tokens[2], &used);
                if (used != tokens[2].size()) fail(line_number, "count must be an integer");
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
            if (tokens.size() != 6 || tokens[3] != "->")
                fail(line_number, "expected: " + keyword + " <p> <q> -> <p'> <q'>");
            StateId p = lookup(tokens[1], line_number);
            StateId q = lookup(tokens[2], line_number);
            StateId p2 = lookup(tokens[4], line_number);
            StateId q2 = lookup(tokens[5], line_number);
            // `trans` defines a pre-pair; `trans+` explicitly adds a further
            // (nondeterministic) rule to an already-defined pre-pair.  A
            // plain `trans` re-targeting a defined pair is overwhelmingly a
            // typo, not intent — a typed error.  Canonicalise both sides
            // exactly as ProtocolBuilder does before comparing.
            if (p > q) std::swap(p, q);
            if (p2 > q2) std::swap(p2, q2);
            const std::uint64_t pre_key = (static_cast<std::uint64_t>(
                                               static_cast<std::uint32_t>(p))
                                           << 32) |
                                          static_cast<std::uint32_t>(q);
            const std::uint64_t post_key = (static_cast<std::uint64_t>(
                                                static_cast<std::uint32_t>(p2))
                                            << 32) |
                                           static_cast<std::uint32_t>(q2);
            const std::string pair_text = "{" + names[static_cast<std::size_t>(p)] + ", " +
                                          names[static_cast<std::size_t>(q)] + "}";
            auto& defined = seen_rules[pre_key];
            if (keyword == "trans+" && defined.empty())
                fail(line_number, "trans+ extends pair " + pair_text +
                                      ", which has no prior rule (use trans)");
            const std::size_t first_line = defined.empty() ? line_number : defined[0].second;
            bool identical_dup = false;
            for (const auto& [earlier_post, earlier_line] : defined) {
                if (earlier_post == post_key) {
                    if (warnings != nullptr)
                        warnings->push_back(
                            {line_number, "duplicate rule for pair " + pair_text +
                                              " (identical to line " +
                                              std::to_string(earlier_line) + ")"});
                    identical_dup = true;
                    break;
                }
            }
            if (!identical_dup && keyword == "trans" && !defined.empty())
                throw DuplicateRuleError(
                    line_number, first_line,
                    "protocol parse error, line " + std::to_string(line_number) +
                        ": conflicting redefinition of pair " + pair_text +
                        " (first defined at line " + std::to_string(first_line) +
                        "; use trans+ to add a nondeterministic rule)");
            if (!identical_dup) defined.emplace_back(post_key, line_number);
            b.add_transition(p, q, p2, q2);
        } else {
            fail(line_number, "unknown keyword '" + keyword + "'");
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
    std::unordered_set<std::uint64_t> emitted_pairs;
    for (const Transition& t : protocol.transitions()) {
        const std::uint64_t pre_key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.pre1)) << 32) |
            static_cast<std::uint32_t>(t.pre2);
        const bool first = emitted_pairs.insert(pre_key).second;
        os << (first ? "trans " : "trans+ ") << protocol.state_name(t.pre1) << ' '
           << protocol.state_name(t.pre2) << " -> " << protocol.state_name(t.post1) << ' '
           << protocol.state_name(t.post2) << '\n';
    }
    return os.str();
}

}  // namespace ppsc
