// ProtocolBuilder against the node-based reference construction
// (tests/oracle/reference_builder.hpp): fed the same calls, the flat-table
// builder must produce every table a Protocol exposes field for field —
// transitions in order, PairIds, the rule CSR, pair neighbours, self pairs,
// post-state incidence, names and the name lookup — on every registered
// family, every BB(3) transition table, a sampled BB(5) block, and
// format/parse round trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/protocol_parser.hpp"
#include "oracle/reference_builder.hpp"
#include "protocols/families.hpp"
#include "support/rng.hpp"

namespace ppsc {
namespace {

template <typename T>
std::vector<T> to_vector(std::span<const T> values) {
    return {values.begin(), values.end()};
}

/// Asserts that `p` holds exactly the tables of `r`.  `context` names the
/// protocol in failure messages.
void expect_same_tables(const Protocol& p, const oracle::ReferenceTables& r,
                        const std::string& context) {
    SCOPED_TRACE(context);
    const std::size_t n = r.names.size();
    ASSERT_EQ(to_vector(p.state_names()), r.names);
    for (std::size_t q = 0; q < n; ++q) {
        const auto s = static_cast<StateId>(q);
        ASSERT_EQ(p.output(s), r.outputs[q]);
        ASSERT_EQ(p.find_state(r.names[q]), r.name_to_state.at(r.names[q]));
        ASSERT_EQ(p.self_pair(s), r.self_pair[q]);
        ASSERT_EQ(to_vector(p.transitions_producing(s)),
                  std::vector<TransitionId>(r.producing_ids.begin() + r.producing_offsets[q],
                                            r.producing_ids.begin() + r.producing_offsets[q + 1]));
        const auto neighbors = p.pair_neighbors(s);
        ASSERT_EQ(neighbors.size(), r.neighbor_offsets[q + 1] - r.neighbor_offsets[q]);
        for (std::size_t k = 0; k < neighbors.size(); ++k) {
            ASSERT_EQ(neighbors[k].partner, r.neighbors[r.neighbor_offsets[q] + k].partner);
            ASSERT_EQ(neighbors[k].pair, r.neighbors[r.neighbor_offsets[q] + k].pair);
        }
        ASSERT_EQ(p.leaders()[s], r.leaders[q]);
    }
    EXPECT_EQ(p.find_state(""), std::nullopt);
    EXPECT_EQ(p.find_state("no such state"), std::nullopt);
    ASSERT_EQ(to_vector(p.transitions()), r.transitions);
    ASSERT_EQ(to_vector(p.nonsilent_pairs()), r.nonsilent_pairs);
    for (std::size_t id = 0; id < r.nonsilent_pairs.size(); ++id) {
        const auto [q1, q2] = r.nonsilent_pairs[id];
        ASSERT_EQ(p.pair_id(q1, q2), id);
        ASSERT_EQ(p.pair_id(q2, q1), id);
        ASSERT_EQ(to_vector(p.rules_for_pair_id(static_cast<Protocol::PairId>(id))),
                  std::vector<TransitionId>(r.pair_rule_ids.begin() + r.rule_offsets[id],
                                            r.pair_rule_ids.begin() + r.rule_offsets[id + 1]));
    }
    // Every pair of a small protocol, else 2000 sampled pairs (silent ones
    // mostly): kNoPair exactly where the reference has no entry.
    const auto expect_pair = [&](StateId a, StateId b) {
        ASSERT_EQ(p.pair_id(a, b), r.pair_id(a, b)) << a << ", " << b;
    };
    if (n <= 64) {
        for (StateId a = 0; a < static_cast<StateId>(n); ++a)
            for (StateId b = 0; b < static_cast<StateId>(n); ++b) expect_pair(a, b);
    } else {
        Rng rng(n);
        for (int i = 0; i < 2000; ++i)
            expect_pair(static_cast<StateId>(rng.below(n)), static_cast<StateId>(rng.below(n)));
    }
    ASSERT_EQ(to_vector(p.input_variables()), r.input_names);
    for (std::size_t v = 0; v < r.input_states.size(); ++v)
        ASSERT_EQ(p.input_state(v), r.input_states[v]);
}

/// Feeds `builder` the calls that declare `source`.  With `scramble`, the
/// transitions also arrive flipped, repeated and interleaved with silent
/// ones, all of which construction must drop.
template <typename Builder>
void replay(const Protocol& source, Builder& builder, bool scramble) {
    for (std::size_t q = 0; q < source.num_states(); ++q)
        builder.add_state(source.state_name(static_cast<StateId>(q)),
                          source.output(static_cast<StateId>(q)));
    const auto transitions = source.transitions();
    for (std::size_t i = 0; i < transitions.size(); ++i) {
        const Transition& t = transitions[i];
        builder.add_transition(t.pre1, t.pre2, t.post1, t.post2);
        if (!scramble) continue;
        if (i % 3 == 0) builder.add_transition(t.pre2, t.pre1, t.post2, t.post1);
        if (i % 5 == 0) builder.add_transition(t.pre2, t.pre1, t.pre1, t.pre2);
        if (i % 7 == 0) {
            const Transition& earlier = transitions[i / 2];
            builder.add_transition(earlier.post1, earlier.post2, earlier.post2, earlier.post1);
            builder.add_transition(earlier.pre1, earlier.pre2, earlier.post1, earlier.post2);
        }
    }
    for (std::size_t v = 0; v < source.input_variables().size(); ++v)
        builder.set_input(source.input_variables()[v], source.input_state(v));
    for (std::size_t q = 0; q < source.num_states(); ++q) {
        const AgentCount count = source.leaders()[static_cast<StateId>(q)];
        if (count > 0) builder.add_leaders(static_cast<StateId>(q), count);
    }
}

oracle::ReferenceTables reference_of(const Protocol& source, bool scramble) {
    oracle::ReferenceBuilder reference;
    replay(source, reference, scramble);
    return std::move(reference).build();
}

std::vector<std::pair<std::string, Protocol>> registered_families() {
    std::vector<std::pair<std::string, Protocol>> built;
    for (const protocols::ProtocolFamily& family : protocols::protocol_families()) {
        std::vector<std::string> args;
        std::istringstream example(family.example_args);
        for (std::string token; example >> token;) args.push_back(token);
        built.emplace_back(family.name, protocols::build_family(family.name, args));
    }
    const std::string larger[][2] = {{"double_exp", "17"}, {"double_exp_dense", "6"},
                                     {"collector", "1000003"}, {"cascade", "3"}};
    for (const auto& [name, arg] : larger) {
        std::vector<std::string> args{arg};
        if (std::string(name) == "cascade") args.push_back("4");
        built.emplace_back(std::string(name) + " " + arg, protocols::build_family(name, args));
    }
    return built;
}

TEST(BuildOracle, EveryRegisteredFamilyMatchesTheReference) {
    for (const auto& [name, built] : registered_families()) {
        // The family's own build, and a scrambled replay through both
        // builders: duplicates, flips and silent rules leave no trace.
        expect_same_tables(built, reference_of(built, false), name);
        ProtocolBuilder rebuilt;
        replay(built, rebuilt, true);
        expect_same_tables(std::move(rebuilt).build(), reference_of(built, true),
                           name + " scrambled");
    }
}

TEST(BuildOracle, FormatParseRoundTripsMatchTheReference) {
    std::vector<std::pair<std::string, Protocol>> cases = registered_families();
    // A nondeterministic protocol: several rules per pair, `trans+` lines.
    ProtocolBuilder b;
    for (int q = 0; q < 6; ++q) b.add_state("s" + std::to_string(q), q % 2);
    for (StateId q = 0; q < 6; ++q) {
        for (StateId p = 0; p <= q; ++p) {
            b.add_transition(p, q, (p + 1) % 6, q);
            b.add_transition(q, p, p, (q + 2) % 6);
            b.add_transition(p, q, (p + q) % 6, (p * q) % 6);
        }
    }
    b.set_input("x", 1);
    b.set_input("y", 2);
    b.add_leaders(3, 4);
    cases.emplace_back("nondeterministic", std::move(b).build());
    for (const auto& [name, built] : cases) {
        const std::string text = format_protocol(built);
        ParseReport report;
        const Protocol parsed = parse_protocol(text, &report);
        expect_same_tables(parsed, reference_of(built, false), name + " round trip");
        // Every recorded line is the one format_protocol wrote the entry on.
        std::vector<std::size_t> state_lines, transition_lines;
        std::istringstream lines(text);
        std::size_t number = 0;
        for (std::string line; std::getline(lines, line);) {
            ++number;
            if (line.starts_with("state ")) state_lines.push_back(number);
            if (line.starts_with("trans")) transition_lines.push_back(number);
        }
        EXPECT_EQ(report.state_line, state_lines) << name;
        EXPECT_EQ(report.transition_line, transition_lines) << name;
        EXPECT_TRUE(report.warnings.empty()) << name;
    }
}

/// The builder calls busy_beaver_search makes for one encoding: states
/// q0..q{n-1} with output bit q of `outputs`, input x at q0, and pair k (in
/// triangular order k = q(q+1)/2 + p) mapped to pair table[k].
template <typename Builder>
void build_encoding(Builder& builder, std::size_t n, std::uint32_t outputs,
                    const std::vector<std::uint16_t>& table) {
    std::vector<std::pair<StateId, StateId>> pairs;
    for (std::size_t q = 0; q < n; ++q) {
        builder.add_state("q" + std::to_string(q), static_cast<int>((outputs >> q) & 1u));
        for (std::size_t p = 0; p <= q; ++p)
            pairs.emplace_back(static_cast<StateId>(p), static_cast<StateId>(q));
    }
    builder.set_input("x", 0);
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        const auto [r, s] = pairs[table[k]];
        builder.add_transition(pairs[k].first, pairs[k].second, r, s);
    }
}

void expect_encoding_matches(std::size_t n, std::uint32_t outputs,
                             const std::vector<std::uint16_t>& table) {
    ProtocolBuilder b;
    oracle::ReferenceBuilder reference;
    build_encoding(b, n, outputs, table);
    build_encoding(reference, n, outputs, table);
    std::string context =
        "n=" + std::to_string(n) + " outputs=" + std::to_string(outputs) + " table";
    for (const std::uint16_t entry : table) context += " " + std::to_string(entry);
    expect_same_tables(std::move(b).build(), std::move(reference).build(), context);
}

TEST(BuildOracle, EveryBusyBeaver3TableMatchesTheReference) {
    // All 6⁶ transition tables of the 3-state search space.  The output
    // mask only fills the outputs row, so each table takes one of the 7
    // non-zero masks in turn instead of all of them.
    constexpr std::size_t kPairs = 6;
    std::vector<std::uint16_t> table(kPairs);
    std::uint64_t code = 0;
    for (; code < 46'656; ++code) {
        std::uint64_t rest = code;
        for (std::uint16_t& entry : table) {
            entry = static_cast<std::uint16_t>(rest % kPairs);
            rest /= kPairs;
        }
        expect_encoding_matches(3, static_cast<std::uint32_t>(1 + code % 7), table);
        if (HasFatalFailure()) return;
    }
}

TEST(BuildOracle, SampledBusyBeaver5BlockMatchesTheReference) {
    constexpr std::size_t kPairs = 15;
    Rng rng(20'260'518);
    std::vector<std::uint16_t> table(kPairs);
    for (int candidate = 0; candidate < 4096; ++candidate) {
        const auto outputs = static_cast<std::uint32_t>(1 + rng.below(31));
        for (std::uint16_t& entry : table) entry = static_cast<std::uint16_t>(rng.below(kPairs));
        expect_encoding_matches(5, outputs, table);
        if (HasFatalFailure()) return;
    }
}

}  // namespace
}  // namespace ppsc
