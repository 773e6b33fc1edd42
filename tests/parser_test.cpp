// Tests for the protocol text format (parser + serialiser round trip),
// including the registered protocol families: every name the tool's help
// lists must build from its example parameters and round-trip.
#include "core/protocol_parser.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "protocols/double_exp_threshold.hpp"
#include "protocols/families.hpp"
#include "protocols/threshold.hpp"
#include "verify/verifier.hpp"

namespace ppsc {
namespace {

constexpr const char* kThreshold2 = R"(# x >= 2 detector
state x 0
state T 1
input x -> x
trans x x -> T T
trans x T -> T T
)";

TEST(ProtocolParser, ParsesMinimalProtocol) {
    const Protocol p = parse_protocol(kThreshold2);
    EXPECT_EQ(p.num_states(), 2u);
    EXPECT_EQ(p.num_transitions(), 2u);
    EXPECT_TRUE(p.is_leaderless());
    const Verifier verifier(p);
    EXPECT_TRUE(verifier.check_predicate(Predicate::x_at_least(2), 2, 6).holds);
}

TEST(ProtocolParser, ParsesLeadersAndComments) {
    const Protocol p = parse_protocol(R"(
state x 0      # input token
state l 0
state T 1
input x -> x
leaders l 2
trans l x -> T T
trans T x -> T T
trans T l -> T T
)");
    EXPECT_FALSE(p.is_leaderless());
    EXPECT_EQ(p.leaders()[*p.find_state("l")], 2);
}

TEST(ProtocolParser, RoundTripsThroughFormat) {
    const Protocol original = protocols::collector_threshold(5);
    const Protocol reparsed = parse_protocol(format_protocol(original));
    EXPECT_EQ(reparsed.num_states(), original.num_states());
    EXPECT_EQ(reparsed.num_transitions(), original.num_transitions());
    // Semantically identical: same verdicts on a range of inputs.
    const Verifier v1(original), v2(reparsed);
    for (AgentCount i = 2; i <= 8; ++i) {
        EXPECT_EQ(v1.verify_input(i).computed, v2.verify_input(i).computed) << i;
    }
}

// A large protocol (|Q| = 2¹⁵ + 3 = 32771) round-trips structurally: same
// states, outputs, inputs, leaders and transitions in the same order.
// State-name lookup is hashed, so this parse is linear in the file size.
TEST(ProtocolParser, RoundTripsLargeProtocolStructurally) {
    const Protocol original = protocols::double_exp_threshold(15);
    ASSERT_EQ(original.num_states(), 32771u);
    const Protocol reparsed = parse_protocol(format_protocol(original));
    ASSERT_EQ(reparsed.num_states(), original.num_states());
    for (std::size_t q = 0; q < original.num_states(); ++q) {
        const auto id = static_cast<StateId>(q);
        ASSERT_EQ(reparsed.state_name(id), original.state_name(id)) << q;
        ASSERT_EQ(reparsed.output(id), original.output(id)) << q;
        ASSERT_EQ(reparsed.leaders()[id], original.leaders()[id]) << q;
    }
    ASSERT_EQ(reparsed.input_variables().size(), original.input_variables().size());
    for (std::size_t v = 0; v < original.input_variables().size(); ++v) {
        EXPECT_EQ(reparsed.input_variables()[v], original.input_variables()[v]);
        EXPECT_EQ(reparsed.input_state(v), original.input_state(v));
    }
    const auto a = original.transitions();
    const auto b = reparsed.transitions();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

TEST(ProtocolParser, ErrorsCarryLineNumbers) {
    try {
        parse_protocol("state a 0\nstate b 2\n");
        FAIL() << "expected parse error";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
}

TEST(ProtocolParser, RejectsBrokenInputs) {
    EXPECT_THROW(parse_protocol("bogus line\n"), std::invalid_argument);
    EXPECT_THROW(parse_protocol("state a 0\ninput x -> missing\n"), std::invalid_argument);
    EXPECT_THROW(parse_protocol("state a 0\ntrans a a ->\n"), std::invalid_argument);
    EXPECT_THROW(parse_protocol("state a 0\nleaders a many\n"), std::invalid_argument);
    EXPECT_THROW(parse_protocol("state a 0\n"), std::invalid_argument);  // no input
    EXPECT_THROW(parse_protocol("state a 0\nstate a 1\ninput x -> a\n"),
                 std::invalid_argument);  // duplicate state
}

TEST(ProtocolParser, LeaderTotalPastAgentCountIsTypedErrorOnItsLine) {
    // Each count fits an int64, their sum does not: the second `leaders`
    // line is the one reported, before any configuration holds the total.
    const std::string text =
        "state a 0\nstate b 1\ninput x -> a\n"
        "leaders b 9223372036854775807\n"
        "leaders b 9223372036854775807\n";
    try {
        parse_protocol(text);
        FAIL() << "expected parse error";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 5"), std::string::npos) << what;
        EXPECT_NE(what.find("leader total out of range"), std::string::npos) << what;
    }
    const Protocol p = parse_protocol(
        "state a 0\nstate b 1\ninput x -> a\nleaders b 9223372036854775806\nleaders a 1\n");
    EXPECT_EQ(p.leaders()[*p.find_state("b")], 9223372036854775806);
    EXPECT_EQ(p.leaders()[*p.find_state("a")], 1);
}

TEST(ProtocolParser, LeaderCountTokensFollowTheIntegerGrammar) {
    const std::string head = "state a 0\nstate b 1\ninput x -> a\nleaders b ";
    EXPECT_EQ(parse_protocol(head + "+007\n").leaders()[1], 7);
    for (const char* bad : {"12x", "0x10", "1.0", "-", "+"}) {
        try {
            parse_protocol(head + bad + "\n");
            FAIL() << "expected parse error for '" << bad << "'";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("line 4: count must be an integer"),
                      std::string::npos)
                << e.what();
        }
    }
    try {
        parse_protocol(head + "9223372036854775808\n");
        FAIL() << "expected parse error";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("line 4: count out of range"), std::string::npos)
            << e.what();
    }
}

TEST(ProtocolParser, UnknownStateIsTypedError) {
    try {
        parse_protocol("state a 0\nstate b 1\ninput x -> a\ntrans a zz -> b b\n");
        FAIL() << "expected parse error";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("unknown state 'zz'"), std::string::npos) << what;
    }
}

TEST(ProtocolParser, EmptyFileFailsCleanly) {
    EXPECT_THROW(parse_protocol(""), std::invalid_argument);
}

TEST(ProtocolParser, ConflictingRedefinitionIsTypedError) {
    // Same pre-pair, different post-pair, plain `trans`: a typo, not a
    // nondeterministic protocol — typed error carrying both line numbers.
    const char* text =
        "state a 0\nstate b 1\ninput x -> a\ntrans a a -> b b\ntrans a a -> a b\n";
    try {
        parse_protocol(text);
        FAIL() << "expected DuplicateRuleError";
    } catch (const DuplicateRuleError& e) {
        EXPECT_EQ(e.line(), 5u);
        EXPECT_EQ(e.previous_line(), 4u);
        EXPECT_NE(std::string(e.what()).find("conflicting redefinition"), std::string::npos)
            << e.what();
    }
}

TEST(ProtocolParser, ConflictDetectionCanonicalisesPairOrder) {
    // `trans b a` and `trans a b` name the same unordered pre-pair.
    EXPECT_THROW(
        parse_protocol(
            "state a 0\nstate b 1\ninput x -> a\ntrans a b -> b b\ntrans b a -> a a\n"),
        DuplicateRuleError);
}

TEST(ProtocolParser, IdenticalDuplicateIsWarningNotError) {
    ParseReport report;
    std::vector<ParseWarning>& warnings = report.warnings;
    const Protocol p = parse_protocol(
        "state a 0\nstate b 1\ninput x -> a\ntrans a a -> b b\ntrans a a -> b b\n", &report);
    EXPECT_EQ(p.num_transitions(), 1u);  // builder merges the duplicate
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_EQ(warnings[0].line, 5u);
    EXPECT_NE(warnings[0].message.find("duplicate rule"), std::string::npos)
        << warnings[0].message;
    // Unordered-post duplicate (b a vs a b) is the same rule too.
    warnings.clear();
    parse_protocol("state a 0\nstate b 1\ninput x -> a\ntrans a a -> a b\ntrans a a -> b a\n",
                   &report);
    EXPECT_EQ(warnings.size(), 1u);
}

TEST(ProtocolParser, TransPlusDeclaresNondeterminism) {
    // Explicit nondeterministic extension parses to two rules on the pair…
    const Protocol p = parse_protocol(
        "state a 0\nstate b 1\ninput x -> a\ntrans a a -> a b\ntrans+ a a -> b b\n");
    EXPECT_EQ(p.num_transitions(), 2u);
    EXPECT_EQ(p.rules_for_pair(0, 0).size(), 2u);
    // …and round-trips: the serialiser emits trans+ for the second rule.
    const std::string text = format_protocol(p);
    EXPECT_NE(text.find("trans+"), std::string::npos) << text;
    EXPECT_EQ(format_protocol(parse_protocol(text)), text);
    // trans+ with no prior rule for the pair is an error.
    EXPECT_THROW(
        parse_protocol("state a 0\nstate b 1\ninput x -> a\ntrans+ a a -> b b\n"),
        std::invalid_argument);
}

TEST(ProtocolParser, ManyRulesOnOnePairParseInLinearTime) {
    // 2·10⁵ distinct rules on the pre-pair {s0, s1}, one `trans` and the
    // rest `trans+`.  The duplicate check keys on (pre-pair, post-pair), so
    // this parses in well under a second in Release; a check that scans the
    // pair's earlier rules needs ~16 s per parse on a 4-core Xeon, past the
    // ctest TIMEOUT of this suite (CMakeLists.txt).  A hostile .pp file must
    // never hang.
    constexpr std::size_t kRules = 200'000;
    constexpr std::size_t kStates = 640;  // 640·641/2 ≥ kRules post-pairs
    std::string text;
    for (std::size_t q = 0; q < kStates; ++q) text += "state s" + std::to_string(q) + " 0\n";
    text += "input x -> s0\n";
    std::size_t rules = 0;
    for (std::size_t q = 0; q < kStates && rules < kRules; ++q) {
        for (std::size_t p = 0; p <= q && rules < kRules; ++p, ++rules)
            text += std::string(rules == 0 ? "trans" : "trans+") + " s1 s0 -> s" +
                    std::to_string(q) + " s" + std::to_string(p) + "\n";
    }
    // One identical duplicate (post-pair written the other way round) and
    // one conflicting plain `trans`, after all of them.
    const std::size_t first_rule_line = kStates + 2;
    ParseReport report;
    std::vector<ParseWarning>& warnings = report.warnings;
    const Protocol p = parse_protocol(text + "trans+ s0 s1 -> s0 s1\n", &report);
    ASSERT_EQ(p.rules_for_pair(0, 1).size(), kRules - 1);  // s0 s1 -> s0 s1 is silent
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_EQ(warnings[0].line, first_rule_line + kRules);
    EXPECT_NE(warnings[0].message.find("{s0, s1} (identical to line " +
                                       std::to_string(first_rule_line + 1) + ")"),
              std::string::npos)
        << warnings[0].message;
    try {
        parse_protocol(text + "trans s0 s1 -> s639 s639\n");
        FAIL() << "expected DuplicateRuleError";
    } catch (const DuplicateRuleError& e) {
        EXPECT_EQ(e.line(), first_rule_line + kRules);
        EXPECT_EQ(e.previous_line(), first_rule_line);
    }
}

TEST(ProtocolParser, SilentRulesKeepTheirDuplicateChecks) {
    // Silent rules never reach the protocol, but the parser still tracks
    // them: a conflicting `trans` after one is an error, an identical
    // repeat a warning naming the first line.
    EXPECT_THROW(
        parse_protocol("state a 0\nstate b 1\ninput x -> a\ntrans a b -> b a\ntrans b a -> b b\n"),
        DuplicateRuleError);
    ParseReport report;
    std::vector<ParseWarning>& warnings = report.warnings;
    const Protocol p = parse_protocol(
        "state a 0\nstate b 1\ninput x -> a\ntrans a b -> a b\ntrans b a -> b a\n", &report);
    EXPECT_EQ(p.num_transitions(), 0u);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_EQ(warnings[0].message, "duplicate rule for pair {a, b} (identical to line 4)");
}

TEST(ProtocolParser, NamesTheFormatCannotCarryAreRejected) {
    // A name with whitespace or a leading '#' would be formatted into text
    // the parser rejects or reads as a comment, so the builder refuses it.
    ProtocolBuilder b;
    EXPECT_THROW(b.add_state("a b", 0), std::invalid_argument);
    EXPECT_THROW(b.add_state("tab\there", 0), std::invalid_argument);
    EXPECT_THROW(b.add_state("#q", 0), std::invalid_argument);
    const StateId q = b.add_state("q", 0);
    EXPECT_THROW(b.set_input("#x", q), std::invalid_argument);
    EXPECT_THROW(b.set_input("x y", q), std::invalid_argument);
    EXPECT_THROW(b.set_input("", q), std::invalid_argument);
    EXPECT_EQ(b.num_states(), 1u);

    // Everything else round-trips, '#' inside a name and "->" included.
    const std::string long_name(40, 'L');  // past the small-string buffer
    const StateId odd = b.add_state("a#b", 1);
    const StateId arrow = b.add_state("->", 0);
    const StateId big = b.add_state(long_name, 1);
    b.set_input("x#1", q);
    b.set_input("->", arrow);
    b.add_transition(q, odd, big, big);
    b.add_transition(arrow, arrow, q, odd);
    b.add_transition(arrow, arrow, odd, odd);
    b.add_leaders(big, 2);
    const Protocol built = std::move(b).build();
    const std::string text = format_protocol(built);
    const Protocol reparsed = parse_protocol(text);
    EXPECT_EQ(format_protocol(reparsed), text);
    EXPECT_EQ(reparsed.find_state(long_name), big);
    EXPECT_EQ(reparsed.find_state("a#b"), odd);
    EXPECT_EQ(reparsed.input_variables()[0], "x#1");
    EXPECT_EQ(reparsed.leaders()[big], 2);
    ASSERT_EQ(reparsed.num_transitions(), 3u);
    EXPECT_EQ(reparsed.rules_for_pair(arrow, arrow).size(), 2u);
}

TEST(ProtocolParser, TokensSplitOnEveryFormatSeparator) {
    // Tabs, carriage returns and the other "C"-locale spaces separate
    // tokens; a token starting with '#' ends the line; a last line
    // without a newline still counts.
    const Protocol p = parse_protocol(
        "state\tx 0\r\nstate T\v1 # output\n\f\ninput x -> x\n"
        "trans x x -> T T #c\ntrans x T -> T T");
    EXPECT_EQ(p.num_states(), 2u);
    EXPECT_EQ(p.num_transitions(), 2u);
    try {
        parse_protocol("state x 0\n\nstate x 1\n");
        FAIL() << "expected a duplicate-name error";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    }
    try {
        parse_protocol("state x 0\nstate y 1 extra tokens here too\n");
        FAIL() << "expected an arity error";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("line 2: expected: state"), std::string::npos)
            << e.what();
    }
}

TEST(ProtocolFamilies, EveryRegisteredFamilyBuildsAndRoundTrips) {
    // The registry is the source of the tool's help text; each listed name
    // must build from its documented example parameters, serialise, and
    // reparse to a textually identical protocol.
    ASSERT_FALSE(protocols::protocol_families().empty());
    for (const protocols::ProtocolFamily& family : protocols::protocol_families()) {
        std::vector<std::string> args;
        std::istringstream example(family.example_args);
        for (std::string token; example >> token;) args.push_back(token);
        const Protocol built = protocols::build_family(family.name, args);
        EXPECT_GE(built.num_states(), 2u) << family.name;
        const std::string text = format_protocol(built);
        const Protocol reparsed = parse_protocol(text);
        EXPECT_EQ(format_protocol(reparsed), text) << family.name;
        EXPECT_EQ(reparsed.num_states(), built.num_states()) << family.name;
        EXPECT_EQ(reparsed.num_transitions(), built.num_transitions()) << family.name;
    }
}

TEST(ProtocolFamilies, RejectsUnknownNamesAndBadArity) {
    EXPECT_THROW(protocols::build_family("no_such_family", {}), std::invalid_argument);
    EXPECT_THROW(protocols::build_family("double_exp", {}), std::invalid_argument);
    const std::vector<std::string> two = {"1", "2"};
    EXPECT_THROW(protocols::build_family("unary", two), std::invalid_argument);
    const std::vector<std::string> junk = {"xyz"};
    EXPECT_THROW(protocols::build_family("double_exp", junk), std::invalid_argument);
    // Parameters the builders take as int are range-checked, not narrowed
    // (2^32 + 2 would narrow to 2).
    const std::vector<std::string> wide = {"4294967298"};
    EXPECT_THROW(protocols::build_family("binary", wide), std::invalid_argument);
    EXPECT_THROW(protocols::build_family("double_exp", wide), std::invalid_argument);
    EXPECT_THROW(protocols::build_family("double_exp_dense", wide), std::invalid_argument);
    const std::vector<std::string> wide_base = {"4294967298", "2"};
    const std::vector<std::string> wide_digits = {"3", "-4294967294"};
    EXPECT_THROW(protocols::build_family("cascade", wide_base), std::invalid_argument);
    EXPECT_THROW(protocols::build_family("cascade", wide_digits), std::invalid_argument);
    // The usage text behind `protocol_tool help` lists every family.
    const std::string usage = protocols::family_usage();
    for (const protocols::ProtocolFamily& family : protocols::protocol_families())
        EXPECT_NE(usage.find(family.name), std::string::npos) << family.name;
}

}  // namespace
}  // namespace ppsc
