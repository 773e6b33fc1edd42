// Tests for the protocol-level static analyzer (analyze/): soundness of
// every claim against exhaustive reachability ground truth on the full
// 3-state corpus, a clean certified run over every registered family,
// checker acceptance of every emitted certificate,
// serialisation round trips, tamper rejection (a mutated certificate must
// never pass the independent checker), and the leader-counting power of
// invariant certificates over the structural closure.
#include "analyze/analyze.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/checker.hpp"
#include "protocols/families.hpp"
#include "protocols/threshold.hpp"
#include "verify/reachability.hpp"

namespace ppsc {
namespace {

using analyze::Analysis;
using analyze::AnalysisOptions;
using analyze::Certificate;
using analyze::CertificateKind;
using analyze::CheckReport;

/// Ground truth: explores the exact reachability graph from IC(n) for
/// n = 2..4 and asserts that nothing the analyzer claims impossible ever
/// happens — an unreachable state is never occupied, a dead transition is
/// never enabled, a refuted consensus is never formed.
void expect_sound_against_reachability(const Protocol& protocol, const Analysis& analysis,
                                       const std::string& what) {
    for (AgentCount n = 2; n <= 4; ++n) {
        const std::vector<Config> roots = {protocol.initial_config(n)};
        const ReachabilityGraph graph = ReachabilityGraph::explore(protocol, roots);
        for (NodeId node = 0; node < static_cast<NodeId>(graph.num_nodes()); ++node) {
            const Config& config = graph.config(node);
            for (std::size_t q = 0; q < protocol.num_states(); ++q) {
                if (analysis.unreachable[q] && config[static_cast<StateId>(q)] > 0) {
                    ADD_FAILURE() << what << ": state " << q
                                  << " claimed unreachable but occupied at n = " << n;
                    return;
                }
            }
            for (std::size_t t = 0; t < protocol.num_transitions(); ++t) {
                if (analysis.dead[t] && protocol.enabled(config, protocol.transitions()[t])) {
                    ADD_FAILURE() << what << ": transition " << t
                                  << " claimed dead but enabled at n = " << n;
                    return;
                }
            }
            const std::optional<int> consensus = protocol.consensus_output(config);
            for (int b = 0; b <= 1; ++b) {
                if (analysis.consensus_refuted[static_cast<std::size_t>(b)] && consensus &&
                    *consensus == b) {
                    ADD_FAILURE() << what << ": consensus " << b
                                  << " claimed refuted but reached at n = " << n;
                    return;
                }
            }
        }
    }
}

// The same 3728-protocol corpus as tests/sim_trap_test.cpp: every 3-state
// protocol with at most two non-silent transitions under every output
// assignment.  For each one: every analyzer claim holds on the exact
// reachability graph, every emitted certificate is checker-accepted, and
// the certificate list round-trips through its text serialisation.
TEST(StaticAnalysis, ExhaustiveThreeStateSweepIsSoundAndCertified) {
    struct Candidate {
        StateId p, q, p2, q2;
    };
    std::vector<Candidate> candidates;
    for (StateId p = 0; p < 3; ++p)
        for (StateId q = p; q < 3; ++q)
            for (StateId p2 = 0; p2 < 3; ++p2)
                for (StateId q2 = p2; q2 < 3; ++q2) {
                    if (p == p2 && q == q2) continue;  // silent
                    candidates.push_back({p, q, p2, q2});
                }
    ASSERT_EQ(candidates.size(), 30u);

    std::size_t checked = 0;
    std::size_t protocols_with_unreachable = 0;
    std::size_t protocols_with_dead = 0;
    std::size_t protocols_with_refuted_consensus = 0;
    const auto sweep_outputs = [&](const std::vector<Candidate>& transitions) {
        for (int outputs = 0; outputs < 8; ++outputs) {
            ProtocolBuilder b;
            for (StateId s = 0; s < 3; ++s)
                b.add_state("q" + std::to_string(s), (outputs >> s) & 1);
            b.set_input("x", 0);
            for (const Candidate& t : transitions) b.add_transition(t.p, t.q, t.p2, t.q2);
            const Protocol protocol = std::move(b).build();
            const std::string what =
                "corpus protocol " + std::to_string(checked) + " (mask " +
                std::to_string(outputs) + ")";

            const Analysis analysis = analyze::analyze_protocol(protocol);
            ASSERT_TRUE(analysis.cone_inference_ran) << what;
            expect_sound_against_reachability(protocol, analysis, what);

            const CheckReport report =
                analyze::check_certificates(protocol, analysis.certificates);
            ASSERT_TRUE(report.ok) << what << ": " << report.error;

            const std::vector<Certificate> reparsed = analyze::parse_certificates(
                analyze::format_certificates(analysis.certificates));
            ASSERT_EQ(reparsed, analysis.certificates) << what;

            bool any_unreachable = false, any_dead = false;
            for (const bool u : analysis.unreachable) any_unreachable |= u;
            for (const bool d : analysis.dead) any_dead |= d;
            protocols_with_unreachable += any_unreachable;
            protocols_with_dead += any_dead;
            protocols_with_refuted_consensus +=
                analysis.consensus_refuted[0] || analysis.consensus_refuted[1];
            ++checked;
        }
    };

    sweep_outputs({});  // zero non-silent pairs
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        sweep_outputs({candidates[i]});
        for (std::size_t j = i + 1; j < candidates.size(); ++j)
            sweep_outputs({candidates[i], candidates[j]});
    }
    EXPECT_EQ(checked, 8u * (1 + 30 + 30 * 29 / 2));
    // The sweep must exercise every claim kind, or the soundness assertions
    // above are vacuous.
    EXPECT_GT(protocols_with_unreachable, 0u);
    EXPECT_GT(protocols_with_dead, 0u);
    EXPECT_GT(protocols_with_refuted_consensus, 0u);
}

/// A protocol with a genuinely unreachable state u, a dead transition
/// firing from it, and a refutable output-1 consensus:
///   a (input, output 0), b (output 0), u (output 1)
///   t0: a a -> a b      (b is reachable)
///   t1: u b -> a a      (dead: u is unreachable)
Protocol unreachable_fixture() {
    ProtocolBuilder b;
    const StateId a = b.add_state("a", 0);
    const StateId bb = b.add_state("b", 0);
    const StateId u = b.add_state("u", 1);
    b.set_input("x", a);
    b.add_transition(a, a, a, bb);
    b.add_transition(u, bb, a, a);
    return std::move(b).build();
}

TEST(StaticAnalysis, FindsUnreachableDeadAndRefutedConsensus) {
    const Protocol protocol = unreachable_fixture();
    const Analysis analysis = analyze::analyze_protocol(protocol);
    EXPECT_FALSE(analysis.unreachable[0]);  // a
    EXPECT_FALSE(analysis.unreachable[1]);  // b
    EXPECT_TRUE(analysis.unreachable[2]);   // u
    EXPECT_FALSE(analysis.dead[0]);
    EXPECT_TRUE(analysis.dead[1]);
    EXPECT_FALSE(analysis.consensus_refuted[0]);
    EXPECT_TRUE(analysis.consensus_refuted[1]);
    EXPECT_TRUE(analyze::check_certificates(protocol, analysis.certificates).ok);
    expect_sound_against_reachability(protocol, analysis, "unreachable fixture");
}

TEST(StaticAnalysis, SingletonFallbackStaysSoundWhenConeIsCapped) {
    const Protocol protocol = unreachable_fixture();
    AnalysisOptions options;
    options.cone_state_cap = 0;  // force the O(|T|) singleton path
    const Analysis analysis = analyze::analyze_protocol(protocol, options);
    EXPECT_FALSE(analysis.cone_inference_ran);
    EXPECT_TRUE(analysis.unreachable[2]);
    EXPECT_TRUE(analysis.consensus_refuted[1]);
    EXPECT_TRUE(analyze::check_certificates(protocol, analysis.certificates).ok);
    expect_sound_against_reachability(protocol, analysis, "singleton fallback");
}

// The leader-counting argument invariants add over the structural closure:
// with a *single* leader l and the rule l l -> q x, producing q needs two
// copies of l at once.  The closure fires the pair {l, l} from membership
// alone and admits q; the invariant v = (x:0, l:1, q:2) has v·Δ = 0 and
// threshold v·L = 1 < v(q) = 2, proving q unreachable.
TEST(StaticAnalysis, InvariantCountsLeadersWhereClosureCannot) {
    const auto build = [](AgentCount num_leaders) {
        ProtocolBuilder b;
        const StateId x = b.add_state("x", 0);
        const StateId l = b.add_state("l", 0);
        const StateId q = b.add_state("q", 1);
        b.set_input("in", x);
        b.add_leaders(l, num_leaders);
        b.add_transition(l, l, q, x);
        return std::move(b).build();
    };

    const Protocol single = build(1);
    const Analysis analysis = analyze::analyze_protocol(single);
    ASSERT_TRUE(analysis.cone_inference_ran);
    // The closure certificate (index 0) admits q …
    ASSERT_EQ(analysis.certificates[0].kind, CertificateKind::closure);
    EXPECT_TRUE(analysis.certificates[0].inside[2]);
    // … but an invariant certificate refutes it, and the whole list checks.
    EXPECT_TRUE(analysis.unreachable[2]);
    EXPECT_TRUE(analysis.consensus_refuted[1]);
    EXPECT_TRUE(analyze::check_certificates(single, analysis.certificates).ok);

    // With two leaders q is genuinely reachable; the analyzer must not
    // claim it (the same invariant now has threshold v·L = 2, no claim).
    const Analysis two = analyze::analyze_protocol(build(2));
    EXPECT_FALSE(two.unreachable[2]);
    EXPECT_FALSE(two.consensus_refuted[1]);
}

TEST(StaticAnalysis, HealthyProtocolHasNoFindings) {
    const Protocol protocol = protocols::collector_threshold(5);
    const Analysis analysis = analyze::analyze_protocol(protocol);
    for (const bool u : analysis.unreachable) EXPECT_FALSE(u);
    for (const bool d : analysis.dead) EXPECT_FALSE(d);
    EXPECT_FALSE(analysis.consensus_refuted[0]);
    EXPECT_FALSE(analysis.consensus_refuted[1]);
    EXPECT_TRUE(analyze::check_certificates(protocol, analysis.certificates).ok);
}

TEST(StaticAnalysis, EveryRegisteredFamilyIsCleanAndCertified) {
    // The analyzer over every registered protocol family, built from its
    // documented example parameters: no findings on these known-good
    // protocols, every emitted certificate accepted by the independent
    // checker, and the certificate text format round-trips.  Every build
    // and sanitizer leg runs this, so the sanitizers see the cone
    // completion, the closure worklist and the __int128 certificate
    // arithmetic.
    for (const protocols::ProtocolFamily& family : protocols::protocol_families()) {
        SCOPED_TRACE(family.name);
        std::vector<std::string> args;
        std::istringstream example(family.example_args);
        for (std::string token; example >> token;) args.push_back(token);
        const Protocol protocol = protocols::build_family(family.name, args);
        const Analysis analysis = analyze::analyze_protocol(protocol);

        EXPECT_FALSE(analysis.consensus_refuted[0]);
        EXPECT_FALSE(analysis.consensus_refuted[1]);
        for (const bool u : analysis.unreachable) EXPECT_FALSE(u);
        for (const bool d : analysis.dead) EXPECT_FALSE(d);

        const CheckReport report = analyze::check_certificates(protocol, analysis.certificates);
        EXPECT_TRUE(report.ok) << report.error;
        const std::vector<Certificate> reparsed =
            analyze::parse_certificates(analyze::format_certificates(analysis.certificates));
        EXPECT_TRUE(reparsed == analysis.certificates) << "certificates round-trip";
    }
}

/// Applies `mutate` to a copy of the fixture's certificates and asserts the
/// checker rejects the result (and points at the right certificate).
void expect_tamper_rejected(const Protocol& protocol, std::vector<Certificate> certificates,
                            const std::string& what,
                            const std::function<void(std::vector<Certificate>&)>& mutate) {
    mutate(certificates);
    const CheckReport report = analyze::check_certificates(protocol, certificates);
    EXPECT_FALSE(report.ok) << what;
    EXPECT_FALSE(report.error.empty()) << what;
}

TEST(CertificateChecker, RejectsEveryTamperedCertificate) {
    const Protocol protocol = unreachable_fixture();
    const Analysis analysis = analyze::analyze_protocol(protocol);
    const std::vector<Certificate>& certs = analysis.certificates;
    ASSERT_TRUE(analyze::check_certificates(protocol, certs).ok);

    // Locate one certificate of each kind.
    std::size_t closure_at = certs.size(), invariant_at = certs.size();
    std::size_t dead_at = certs.size(), consensus_at = certs.size();
    for (std::size_t i = 0; i < certs.size(); ++i) {
        switch (certs[i].kind) {
            case CertificateKind::closure: closure_at = i; break;
            case CertificateKind::invariant: invariant_at = i; break;
            case CertificateKind::dead: dead_at = i; break;
            case CertificateKind::consensus: consensus_at = i; break;
        }
    }
    ASSERT_LT(closure_at, certs.size());
    ASSERT_LT(invariant_at, certs.size());
    ASSERT_LT(dead_at, certs.size());
    ASSERT_LT(consensus_at, certs.size());
    // The invariant found claims u (state 2) unreachable.
    ASSERT_TRUE(analyze::claimed_unreachable(certs[invariant_at], protocol)[2]);

    expect_tamper_rejected(protocol, certs, "invariant size", [&](auto& c) {
        c[invariant_at].coefficients.push_back(0);
    });
    expect_tamper_rejected(protocol, certs, "negative coefficient", [&](auto& c) {
        c[invariant_at].coefficients[2] = -1;
    });
    expect_tamper_rejected(protocol, certs, "increasing invariant", [&](auto& c) {
        // v = e_b + e_u increases along t0 (a a -> a b).
        c[invariant_at].coefficients = {0, 1, 1};
    });
    expect_tamper_rejected(protocol, certs, "nonzero on input state", [&](auto& c) {
        c[invariant_at].coefficients[0] = 1;
    });
    expect_tamper_rejected(protocol, certs, "closure size", [&](auto& c) {
        c[closure_at].inside.pop_back();
    });
    expect_tamper_rejected(protocol, certs, "closure drops input state", [&](auto& c) {
        c[closure_at].inside[0] = false;
    });
    expect_tamper_rejected(protocol, certs, "closure not closed", [&](auto& c) {
        c[closure_at].inside[1] = false;  // t0 posts b from {a, a} ⊆ R
    });
    expect_tamper_rejected(protocol, certs, "dead transition out of range", [&](auto& c) {
        c[dead_at].transition = 99;
    });
    expect_tamper_rejected(protocol, certs, "dead state not a pre-state", [&](auto& c) {
        c[dead_at].state = 0;  // a is not a pre-state of t1 (u b -> a a)
    });
    expect_tamper_rejected(protocol, certs, "dead hung on reachable pre-state", [&](auto& c) {
        c[dead_at].state = 1;  // b *is* a pre-state of t1, but provably occupied
    });
    expect_tamper_rejected(protocol, certs, "dead reference dangling", [&](auto& c) {
        c[dead_at].refs = {certs.size() + 7};
    });
    expect_tamper_rejected(protocol, certs, "dead reference not a base certificate",
                           [&](auto& c) { c[dead_at].refs = {consensus_at}; });
    expect_tamper_rejected(protocol, certs, "dead with no references", [&](auto& c) {
        c[dead_at].refs.clear();
    });
    expect_tamper_rejected(protocol, certs, "consensus output out of range", [&](auto& c) {
        c[consensus_at].output = 2;
    });
    expect_tamper_rejected(protocol, certs, "consensus coverage gap", [&](auto& c) {
        // Point the consensus proof at a certificate that claims nothing
        // about u: the closure with u added back in.
        c[closure_at].inside[2] = true;
        c[consensus_at].refs = {closure_at};
    });

    // Tampering must also be caught through the text round trip: serialise,
    // corrupt the text, re-parse, re-check.
    std::string text = analyze::format_certificates(certs);
    const std::size_t pos = text.find("coeffs");
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos + std::string("coeffs").size(), " 7");  // prepend a coefficient
    const std::vector<Certificate> tampered = analyze::parse_certificates(text);
    EXPECT_FALSE(analyze::check_certificates(protocol, tampered).ok);
}

TEST(CertificateFormat, ParserRejectsMalformedText) {
    EXPECT_THROW(analyze::parse_certificates("coeffs 1 2\n"), std::invalid_argument);
    EXPECT_THROW(analyze::parse_certificates("certificate bogus\nend\n"), std::invalid_argument);
    EXPECT_THROW(analyze::parse_certificates("certificate invariant\ncoeffs 1 2\n"),
                 std::invalid_argument);  // unterminated
    EXPECT_THROW(analyze::parse_certificates("certificate invariant\ncoeffs 12x\nend\n"),
                 std::invalid_argument);
    EXPECT_THROW(analyze::parse_certificates("certificate closure\ninside 0 2\nend\n"),
                 std::invalid_argument);
    EXPECT_THROW(
        analyze::parse_certificates("certificate invariant\ncertificate closure\nend\n"),
        std::invalid_argument);
    EXPECT_THROW(analyze::parse_certificates("certificate dead\nrefs -1\nend\n"),
                 std::invalid_argument);
    // An id past TransitionId / StateId is a parse error, never narrowed
    // onto a real id (4294967297 = 2^32 + 1 would read as transition 1).
    EXPECT_THROW(analyze::parse_certificates(
                     "certificate dead\ntransition 4294967297\nstate 2\nrefs 0\nend\n"),
                 std::invalid_argument);
    EXPECT_THROW(analyze::parse_certificates(
                     "certificate dead\ntransition 1\nstate 4294967298\nrefs 0\nend\n"),
                 std::invalid_argument);
    EXPECT_THROW(
        analyze::parse_certificates("certificate invariant\ncoeffs 9223372036854775808\nend\n"),
        std::invalid_argument);
    // A negative id parses; the checker rejects it against the protocol.
    const std::vector<Certificate> negative =
        analyze::parse_certificates("certificate dead\ntransition -1\nstate -2\nend\n");
    ASSERT_EQ(negative.size(), 1u);
    EXPECT_EQ(negative[0].transition, -1);
    EXPECT_EQ(negative[0].state, -2);
    // Line numbers are part of the contract.
    try {
        analyze::parse_certificates("certificate invariant\ncoeffs 1\nwhat 3\nend\n");
        FAIL() << "expected parse error";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    }
}

}  // namespace
}  // namespace ppsc
