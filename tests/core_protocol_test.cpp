// Unit tests for Protocol / ProtocolBuilder, including Example 2.1 of the
// paper built by hand.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "protocols/majority.hpp"
#include "protocols/modulo.hpp"
#include "protocols/threshold.hpp"

namespace ppsc {
namespace {

/// The protocol P_1 of Example 2.1 (k = 1): computes x >= 2 with states
/// {0, 1, 2}, transitions a,b -> 0,a+b if a+b < 2 and a,b -> 2,2 otherwise.
Protocol build_example21_p1() {
    ProtocolBuilder b;
    const StateId s0 = b.add_state("0", 0);
    const StateId s1 = b.add_state("1", 0);
    const StateId s2 = b.add_state("2", 1);
    b.set_input("x", s1);
    // a=0,b=0 -> 0,0 silent. a=0,b=1 -> 0,1 silent. a=1,b=1 -> 2,2.
    b.add_transition(s1, s1, s2, s2);
    // pairs involving 2: a+b >= 2 -> 2,2.
    b.add_transition(s2, s0, s2, s2);
    b.add_transition(s2, s1, s2, s2);
    return std::move(b).build();
}

TEST(ProtocolBuilder, BuildsExample21) {
    const Protocol p = build_example21_p1();
    EXPECT_EQ(p.num_states(), 3u);
    EXPECT_EQ(p.num_transitions(), 3u);
    EXPECT_TRUE(p.is_leaderless());
    EXPECT_EQ(p.input_variables().size(), 1u);
    EXPECT_EQ(p.output(*p.find_state("2")), 1);
    EXPECT_EQ(p.output(*p.find_state("1")), 0);
}

TEST(ProtocolBuilder, RejectsBadInput) {
    ProtocolBuilder b;
    EXPECT_THROW(b.add_state("A", 2), std::invalid_argument);
    const StateId a = b.add_state("A", 0);
    EXPECT_THROW(b.add_state("A", 0), std::invalid_argument);
    EXPECT_THROW(b.add_state("", 0), std::invalid_argument);
    EXPECT_THROW(b.add_transition(a, a, a, StateId{5}), std::invalid_argument);
    EXPECT_THROW(b.set_input("x", StateId{9}), std::invalid_argument);
    b.set_input("x", a);
    EXPECT_THROW(b.set_input("x", a), std::invalid_argument);
    EXPECT_THROW(b.add_leaders(a, 0), std::invalid_argument);
}

TEST(ProtocolBuilder, BuildWithoutStatesOrInputThrows) {
    {
        ProtocolBuilder b;
        EXPECT_THROW(std::move(b).build(), std::invalid_argument);
    }
    {
        ProtocolBuilder b;
        b.add_state("A", 0);
        EXPECT_THROW(std::move(b).build(), std::invalid_argument);
    }
}

TEST(ProtocolBuilder, SilentTransitionsAreIgnoredAndDuplicatesMerged) {
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 0);
    const StateId c = b.add_state("B", 0);
    b.set_input("x", a);
    // add_transition returns the id a rule is filed under.
    EXPECT_EQ(b.add_transition(a, c, a, c), ProtocolBuilder::kSilent);
    EXPECT_EQ(b.add_transition(a, c, c, a), ProtocolBuilder::kSilent);  // after canonicalisation
    EXPECT_EQ(b.add_transition(a, a, c, c), 0);
    EXPECT_EQ(b.add_transition(c, c, a, c), 1);
    EXPECT_EQ(b.add_transition(a, a, c, c), 0);  // duplicate
    EXPECT_EQ(b.add_transition("B", "B", "B", "A"), 1);  // duplicate, by name and flipped
    const Protocol p = std::move(b).build();
    EXPECT_EQ(p.num_transitions(), 2u);
    EXPECT_TRUE(p.pair_is_silent(a, c));
    EXPECT_FALSE(p.pair_is_silent(a, a));
}

TEST(ProtocolBuilder, TransitionsCanonicalisedUnordered) {
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 0);
    const StateId c = b.add_state("B", 0);
    const StateId d = b.add_state("C", 1);
    b.set_input("x", a);
    b.add_transition(c, a, d, a);  // stored as {A,B} -> {A,C}
    const Protocol p = std::move(b).build();
    ASSERT_EQ(p.num_transitions(), 1u);
    const Transition& t = p.transitions()[0];
    EXPECT_LE(t.pre1, t.pre2);
    EXPECT_LE(t.post1, t.post2);
    EXPECT_EQ(p.rules_for_pair(a, c).size(), 1u);
    EXPECT_EQ(p.rules_for_pair(c, a).size(), 1u);
}

TEST(Protocol, InitialConfigLeaderless) {
    const Protocol p = build_example21_p1();
    const Config ic = p.initial_config(5);
    EXPECT_EQ(ic.size(), 5);
    EXPECT_EQ(ic[*p.find_state("1")], 5);
    // Linearity for leaderless protocols (Section 2.2).
    const Config ic2 = p.initial_config(2);
    const Config ic3 = p.initial_config(3);
    EXPECT_EQ(ic2 + ic3, ic);
}

TEST(Protocol, InitialConfigRequiresTwoAgents) {
    const Protocol p = build_example21_p1();
    EXPECT_THROW(p.initial_config(1), std::invalid_argument);
    EXPECT_THROW(p.initial_config(-3), std::invalid_argument);
}

TEST(Protocol, InitialConfigWithLeaders) {
    ProtocolBuilder b;
    const StateId x = b.add_state("x", 0);
    const StateId ell = b.add_state("L", 1);
    b.set_input("x", x);
    b.add_leaders(ell, 2);
    const Protocol p = std::move(b).build();
    EXPECT_FALSE(p.is_leaderless());
    const Config ic = p.initial_config(3);
    EXPECT_EQ(ic[x], 3);
    EXPECT_EQ(ic[ell], 2);
    EXPECT_EQ(ic.size(), 5);
    // With leaders, IC(0) is still a valid configuration (two leader agents).
    EXPECT_EQ(p.initial_config(0).size(), 2);
}

TEST(Protocol, InitialConfigRejectsPopulationPastAgentCount) {
    // IC(m) = L + m·I(x) must fit AgentCount: the input count is checked
    // against the leaders already placed, before Config::add sums them.
    constexpr AgentCount kMax = std::numeric_limits<AgentCount>::max();
    ProtocolBuilder b;
    const StateId x = b.add_state("x", 0);
    const StateId ell = b.add_state("L", 1);
    b.set_input("x", x);
    b.add_leaders(ell, 3);
    const Protocol p = std::move(b).build();
    EXPECT_THROW(p.initial_config(kMax), std::invalid_argument);
    EXPECT_THROW(p.initial_config(kMax - 2), std::invalid_argument);
    EXPECT_EQ(p.initial_config(kMax - 3).size(), kMax);

    // Two inputs whose counts each fit, but not together.
    ProtocolBuilder two;
    two.set_input("x", two.add_state("x", 0));
    two.set_input("y", two.add_state("y", 1));
    const Protocol q = std::move(two).build();
    const std::vector<AgentCount> input = {kMax, 1};
    EXPECT_THROW(q.initial_config(input), std::invalid_argument);
}

TEST(ProtocolBuilder, RejectsLeaderTotalPastAgentCount) {
    constexpr AgentCount kMax = std::numeric_limits<AgentCount>::max();
    ProtocolBuilder b;
    const StateId x = b.add_state("x", 0);
    const StateId ell = b.add_state("L", 1);
    b.set_input("x", x);
    b.add_leaders(ell, kMax - 1);
    EXPECT_THROW(b.add_leaders(x, 2), std::invalid_argument);
    b.add_leaders(x, 1);  // the total may reach the maximum exactly
    const Protocol p = std::move(b).build();
    EXPECT_EQ(p.initial_config(0).size(), kMax);
}

TEST(Protocol, ConsensusOutput) {
    const Protocol p = build_example21_p1();
    const StateId s0 = *p.find_state("0"), s1 = *p.find_state("1"), s2 = *p.find_state("2");
    Config all_two(3);
    all_two.set(s2, 4);
    EXPECT_EQ(p.consensus_output(all_two), 1);
    Config mixed(3);
    mixed.set(s1, 1);
    mixed.set(s2, 1);
    EXPECT_EQ(p.consensus_output(mixed), std::nullopt);
    Config zeros(3);
    zeros.set(s0, 2);
    zeros.set(s1, 1);
    EXPECT_EQ(p.consensus_output(zeros), 0);
    EXPECT_EQ(p.consensus_output(Config(3)), std::nullopt);
}

TEST(Protocol, ConsensusOutputRejectsRowsOfAnotherSize) {
    // A row over another state count would be read past its end or past
    // the output table; it is refused in every build mode.
    const Protocol p = build_example21_p1();
    Config wider(4);
    wider.set(3, 2);
    EXPECT_THROW(p.consensus_output(wider), std::logic_error);
    const std::vector<AgentCount> shorter = {2, 0};
    EXPECT_THROW(p.consensus_output(std::span<const AgentCount>(shorter)), std::logic_error);
}

TEST(Protocol, CopiesShareTheirTables) {
    const Protocol p = protocols::collector_threshold(6);
    const Protocol copy = p;
    EXPECT_EQ(copy.transitions().data(), p.transitions().data());
    EXPECT_EQ(copy.state_names().data(), p.state_names().data());
    EXPECT_EQ(copy.nonsilent_pairs().data(), p.nonsilent_pairs().data());
    Protocol assigned = build_example21_p1();
    assigned = p;
    EXPECT_EQ(assigned.transitions().data(), p.transitions().data());
    EXPECT_EQ(&assigned.leaders(), &p.leaders());
}

TEST(Protocol, MovedFromProtocolStaysSafeToCall) {
    // A move copies the handle, so the source still describes the same
    // protocol: every call on it is as valid as before the move.
    Protocol p = protocols::collector_threshold(6);
    const std::string text = p.to_text();
    const Protocol moved = std::move(p);
    EXPECT_EQ(p.num_states(), moved.num_states());
    EXPECT_EQ(p.to_text(), text);
    EXPECT_EQ(p.initial_config(7), moved.initial_config(7));
    EXPECT_EQ(p.consensus_output(moved.initial_config(7)), 0);
    Protocol target = build_example21_p1();
    target = std::move(p);
    EXPECT_EQ(target.to_text(), text);
    EXPECT_EQ(p.to_text(), text);
    EXPECT_EQ(p.transitions().data(), moved.transitions().data());
}

TEST(Protocol, EnabledAndFire) {
    const Protocol p = build_example21_p1();
    const StateId s1 = *p.find_state("1"), s2 = *p.find_state("2");
    const Transition& doubling = p.transitions()[p.rules_for_pair(s1, s1).front()];

    Config two_ones = Config::single(3, s1, 2);
    EXPECT_TRUE(p.enabled(two_ones, doubling));
    const Config after = p.fire(two_ones, doubling);
    EXPECT_EQ(after[s2], 2);
    EXPECT_EQ(after[s1], 0);
    EXPECT_EQ(after.size(), 2);  // agent count conserved

    Config one_one = Config::single(3, s1, 1);
    EXPECT_FALSE(p.enabled(one_one, doubling));  // pairs need two agents
}

TEST(Protocol, DisplacementVectors) {
    const Protocol p = build_example21_p1();
    const StateId s1 = *p.find_state("1"), s2 = *p.find_state("2");
    const Transition& doubling = p.transitions()[p.rules_for_pair(s1, s1).front()];
    const auto delta = p.displacement(doubling);
    EXPECT_EQ(delta[static_cast<std::size_t>(s1)], -2);
    EXPECT_EQ(delta[static_cast<std::size_t>(s2)], 2);
    // Displacements conserve the number of agents.
    std::int64_t sum = 0;
    for (auto d : delta) sum += d;
    EXPECT_EQ(sum, 0);
}

TEST(Protocol, TextAndDotRenderings) {
    const Protocol p = build_example21_p1();
    const std::string text = p.to_text();
    EXPECT_NE(text.find("3 states"), std::string::npos);
    EXPECT_NE(text.find("leaderless"), std::string::npos);
    const std::string dot = p.to_dot();
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("doublecircle"), std::string::npos);
}

TEST(Protocol, FindStateMissingReturnsNullopt) {
    const Protocol p = build_example21_p1();
    EXPECT_EQ(p.find_state("missing"), std::nullopt);
}

TEST(Protocol, FindStateResolvesLongNames) {
    // Names past the small-string buffer live on the heap; the name index
    // hashes the characters, so a lookup through a string_view over other
    // storage, or a prefix of a declared name, resolves exactly.
    ProtocolBuilder b;
    std::vector<std::string> names;
    for (int i = 0; i < 300; ++i)
        names.push_back("state_with_a_long_name_" +
                        std::string(static_cast<std::size_t>(i % 7), 'x') + std::to_string(i));
    for (const std::string& name : names) b.add_state(name, 0);
    for (std::size_t i = 0; i < names.size(); ++i)
        ASSERT_EQ(b.find_state(std::string_view(names[i])), static_cast<StateId>(i));
    EXPECT_EQ(b.find_state("state_with_a_long_name_"), std::nullopt);
    EXPECT_THROW(b.add_state(names[123], 1), std::invalid_argument);
    b.set_input("x", 0);
    const Protocol p = std::move(b).build();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string copy = names[i] + "?";
        ASSERT_EQ(p.find_state(std::string_view(copy).substr(0, names[i].size())),
                  static_cast<StateId>(i));
        ASSERT_EQ(p.find_state(copy), std::nullopt);
    }
}

TEST(Protocol, CsrRuleTableMatchesNaiveMapExhaustively) {
    // The CSR pair→rules table (offsets + flat id array + silent bitset)
    // must agree, for every unordered pair, with a naive map rebuilt from
    // transitions().
    const Protocol candidates[] = {build_example21_p1(),
                                   protocols::unary_threshold(7),
                                   protocols::collector_threshold(37),
                                   protocols::modulo(5, 2),
                                   protocols::majority()};
    for (const Protocol& p : candidates) {
        std::map<std::pair<StateId, StateId>, std::vector<TransitionId>> naive;
        const auto transitions = p.transitions();
        for (std::size_t i = 0; i < transitions.size(); ++i)
            naive[{transitions[i].pre1, transitions[i].pre2}].push_back(
                static_cast<TransitionId>(i));

        const auto n = static_cast<StateId>(p.num_states());
        for (StateId a = 0; a < n; ++a) {
            for (StateId b = 0; b < n; ++b) {
                const auto key = std::make_pair(std::min(a, b), std::max(a, b));
                const auto it = naive.find(key);
                const auto rules = p.rules_for_pair(a, b);
                if (it == naive.end()) {
                    EXPECT_TRUE(rules.empty());
                    EXPECT_TRUE(p.pair_is_silent(a, b));
                } else {
                    EXPECT_EQ(std::vector<TransitionId>(rules.begin(), rules.end()),
                              it->second)
                        << "pair (" << a << ", " << b << ")";
                    EXPECT_FALSE(p.pair_is_silent(a, b));
                }
            }
        }
    }
}

}  // namespace
}  // namespace ppsc
