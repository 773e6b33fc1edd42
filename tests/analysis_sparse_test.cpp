// The analysis stack against its test oracles (tests/oracle/):
// exhaustively over small protocols, randomly over larger ones, and on a
// hand-built graph whose backward closure has a non-trivial BFS round
// structure.  Covered: full_slice against the support × support BFS,
// backward_closure against a deque BFS, StableAnalysis, the pumping
// selection against the per-component rescan, hilbert_basis_equalities
// against brute force up to the Pottier bound, realisable_multiset_basis
// against the displacement-built system — and refutation soundness: a
// candidate that simulation screening or the static analyzer refutes has
// no exact threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "bounds/pumping.hpp"
#include "diophantine/realisable.hpp"
#include "oracle/graph.hpp"
#include "oracle/hilbert.hpp"
#include "protocols/double_exp_threshold.hpp"
#include "protocols/threshold.hpp"
#include "stable/stable_sets.hpp"
#include "support/rng.hpp"
#include "verify/reachability.hpp"
#include "verify/verifier.hpp"

namespace ppsc {
namespace {

/// full_slice interns every configuration of the slice up front (in
/// enumeration order) and close() sorts each node's out-list, so node ids
/// do not depend on how successors are enumerated: the slice must match
/// the support × support oracle node for node, edge for edge.
void expect_slice_matches_oracle(const Protocol& protocol, AgentCount population,
                                 const std::string& what) {
    const ReachabilityGraph slice = ReachabilityGraph::full_slice(protocol, population);
    const oracle::NaiveGraph naive =
        oracle::naive_graph(protocol, oracle::slice_configs(protocol.num_states(), population),
                            false, oracle::rules_over_support_pairs);
    ASSERT_EQ(slice.num_nodes(), naive.rows.size()) << what;
    for (std::size_t node = 0; node < slice.num_nodes(); ++node) {
        const auto out = slice.successors(static_cast<NodeId>(node));
        ASSERT_EQ(slice.config(static_cast<NodeId>(node)).counts(), naive.rows[node]) << what;
        ASSERT_EQ(std::vector<NodeId>(out.begin(), out.end()), naive.successors[node]) << what;
    }

    // Backward closures from Bad_b, the stable-set use.
    for (int b = 0; b < 2; ++b) {
        std::vector<bool> bad(slice.num_nodes(), false);
        for (std::size_t node = 0; node < slice.num_nodes(); ++node)
            bad[node] = protocol.consensus_output(slice.row(static_cast<NodeId>(node))) != b;
        EXPECT_EQ(slice.backward_closure(bad), oracle::backward_closure(slice, bad))
            << what << ", b = " << b;
    }
}

/// A·y − s = 0: the slack form generating_basis_inequalities completes.
HomogeneousSystem slack_form(const HomogeneousSystem& system) {
    HomogeneousSystem slack{system.num_vars + system.rows.size(), {}};
    for (std::size_t i = 0; i < system.rows.size(); ++i) {
        std::vector<std::int64_t> row = system.rows[i];
        row.resize(slack.num_vars, 0);
        row[system.num_vars + i] = -1;
        slack.rows.push_back(std::move(row));
    }
    return slack;
}

/// The completion against the exact Hilbert basis, when the Pottier box
/// has at most `max_points` points; returns whether the system was checked.
bool expect_hilbert_matches_oracle(const HomogeneousSystem& system, std::uint64_t max_points,
                                   const std::string& what) {
    const auto exact = oracle::exact_hilbert_basis(system, max_points);
    if (!exact) return false;
    auto basis = hilbert_basis_equalities(system);
    std::sort(basis.begin(), basis.end());
    EXPECT_EQ(basis, *exact) << what;
    return true;
}

void expect_layers_match_oracles(const Protocol& protocol, AgentCount max_population,
                                 const std::string& what) {
    expect_slice_matches_oracle(protocol, max_population, what);

    const StableAnalysis analysis(protocol, max_population);
    for (AgentCount population = 2; population <= max_population; ++population) {
        for (int b = 0; b < 2; ++b) {
            EXPECT_EQ(analysis.stable_configs(population, b),
                      oracle::stable_configs(protocol, population, b))
                << what << ", population " << population << ", b = " << b;
        }
    }

    // Pumping's stable-configuration selection.
    for (AgentCount input = 2; input <= max_population; ++input) {
        EXPECT_EQ(bounds::stable_configuration_for_input(protocol, input),
                  oracle::stable_configuration_for_input(protocol, input))
            << what << ", input " << input;
    }

    // Diophantine: the realisable basis is the basis of the displacement
    // system, and — where the box is small — the completion of its slack
    // form is the exact Hilbert basis.  A budget abort (possible for the
    // nastier random systems) must strike both or neither.
    HilbertOptions hilbert;
    hilbert.max_frontier = 200'000;
    const HomogeneousSystem system = oracle::realisable_system(protocol);
    RealisableBasis basis;
    try {
        basis = realisable_multiset_basis(protocol, hilbert);
    } catch (const std::length_error&) {
        EXPECT_THROW(generating_basis_inequalities(system, hilbert), std::length_error) << what;
        return;
    }
    EXPECT_EQ(basis.elements, generating_basis_inequalities(system, hilbert)) << what;
    expect_hilbert_matches_oracle(slack_form(system), 20'000, what);
}

// Every protocol over 3 states with at most two non-silent transitions and
// every output assignment — the same 3728-protocol space the trap sweep
// covers, run through every ported layer.
TEST(AnalysisSparse, ExhaustiveThreeStateSweep) {
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
    const auto sweep_outputs = [&](const std::vector<Candidate>& transitions) {
        for (int outputs = 0; outputs < 8; ++outputs) {
            ProtocolBuilder b;
            for (StateId s = 0; s < 3; ++s)
                b.add_state("q" + std::to_string(s), (outputs >> s) & 1);
            b.set_input("x", 0);
            for (const Candidate& t : transitions) b.add_transition(t.p, t.q, t.p2, t.q2);
            const Protocol protocol = std::move(b).build();
            expect_layers_match_oracles(protocol, 4, "outputs mask " + std::to_string(outputs));
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
}

// Randomised protocols over 5 states with up to 8 transitions: multi-rule
// pairs, dead states, and graphs big enough that the CSR walk and the
// support × support probe take genuinely different paths.
TEST(AnalysisSparse, RandomisedFiveStateSweep) {
    Rng rng(0x7a9);
    for (int round = 0; round < 60; ++round) {
        ProtocolBuilder b;
        for (StateId s = 0; s < 5; ++s)
            b.add_state("q" + std::to_string(s), static_cast<int>(rng.below(2)));
        b.set_input("x", 0);
        const int transitions = 1 + static_cast<int>(rng.below(8));
        for (int t = 0; t < transitions; ++t) {
            b.add_transition(static_cast<StateId>(rng.below(5)), static_cast<StateId>(rng.below(5)),
                             static_cast<StateId>(rng.below(5)),
                             static_cast<StateId>(rng.below(5)));
        }
        const Protocol protocol = std::move(b).build();
        expect_layers_match_oracles(protocol, 4, "random round " + std::to_string(round));
    }
}

// The paper's families, where the sparse paths matter most.
TEST(AnalysisSparse, FamiliesAgree) {
    expect_slice_matches_oracle(protocols::unary_threshold(3), 5, "unary(3)");
    expect_slice_matches_oracle(protocols::collector_threshold(5), 4, "collector(5)");
    expect_slice_matches_oracle(protocols::double_exp_threshold(4), 4, "double_exp(4)");
    expect_slice_matches_oracle(protocols::double_exp_threshold_dense(2), 4,
                                "double_exp_dense(2)");
}

// Regression pinning the round structure of the backward closure:
// a three-level chain with a diamond.  The closure is a *set*, so unlike
// the trap fixpoint no order discipline is needed — but the exact expected
// sets are pinned here so a future worklist rewrite that drops nodes (e.g.
// by consuming the visited bit too early) fails loudly rather than only on
// the random sweeps.
TEST(AnalysisSparse, BackwardClosureRegressionOnDiamondChain) {
    // x,y -> z,z ; z,w -> y,y: from {x,y,w,w} the graph branches and
    // re-converges across three BFS levels.
    ProtocolBuilder b;
    const StateId x = b.add_state("x", 0);
    const StateId y = b.add_state("y", 0);
    const StateId z = b.add_state("z", 1);
    const StateId w = b.add_state("w", 1);
    b.set_input("in", x);
    b.add_transition(x, y, z, z);
    b.add_transition(z, w, y, y);
    const Protocol p = std::move(b).build();

    Config root(p.num_states());
    root.set(x, 1);
    root.set(y, 1);
    root.set(w, 2);
    const Config roots[] = {root};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    // {x,y,2w} -> {2z,2w} -> {z,y,w} (twice over: the second z can also
    // react) -> ... the closure of the all-consensus sink must pull in the
    // whole chain; the closure of the root alone contains only the root.
    ASSERT_GE(graph.num_nodes(), 3u);

    std::vector<bool> root_only(graph.num_nodes(), false);
    root_only[static_cast<std::size_t>(graph.roots()[0])] = true;
    const auto from_root = graph.backward_closure(root_only);
    EXPECT_EQ(from_root, oracle::backward_closure(graph, root_only));
    // The root has no predecessors: its backward closure is itself.
    EXPECT_EQ(std::count(from_root.begin(), from_root.end(), true), 1);

    // Seeding from every node with no successors (the sinks) must reach
    // every node: the graph is a finite DAG-plus-cycles where each node
    // can keep firing until it can't.
    std::vector<bool> sinks(graph.num_nodes(), false);
    for (std::size_t node = 0; node < graph.num_nodes(); ++node)
        sinks[node] = graph.successors(static_cast<NodeId>(node)).empty();
    const auto from_sinks = graph.backward_closure(sinks);
    EXPECT_EQ(from_sinks, oracle::backward_closure(graph, sinks));
    EXPECT_EQ(std::count(from_sinks.begin(), from_sinks.end(), true),
              static_cast<std::ptrdiff_t>(graph.num_nodes()));
}

// Laziness contract: constructing a StableAnalysis is free, touching one
// small slice is cheap, and only the queries that genuinely quantify over
// every slice pay for (or trip the budget of) the big ones.
TEST(AnalysisSparse, StableAnalysisIsLazy) {
    const Protocol p = protocols::unary_threshold(2);
    ReachabilityOptions tight;
    tight.max_nodes = 50;  // population 30 over 3 states needs C(32,2) = 496 nodes
    const StableAnalysis analysis(p, 30, tight);

    // Small slices fit the budget and answer correctly.
    EXPECT_EQ(analysis.stable_configs(3, 1).size(), 1u);  // {3·v2}
    Config accept(p.num_states());
    accept.set(*p.find_state("v2"), 4);
    EXPECT_EQ(analysis.stability(accept), Stability::kStable1);

    // All-slice reports force population 30 and must trip the node budget —
    // proof that the constructor and the small queries never materialised it.
    EXPECT_THROW(analysis.stable_counts(1), std::length_error);
    EXPECT_THROW(analysis.downward_closure_violation(), std::length_error);

    // Out-of-range queries are rejected without materialising anything.
    Config too_big(p.num_states());
    too_big.set(*p.find_state("v0"), 31);
    EXPECT_THROW(analysis.stability(too_big), std::invalid_argument);
}

// Refutation soundness, exhaustively: whenever simulation screening or the
// static analyzer refutes a candidate, its exact threshold is nullopt.  Same
// 3-state space as above, with a deliberately small interaction budget
// (soundness may not depend on it) and the analyzer at linear time only
// (no cone completion).
TEST(AnalysisSparse, ScreeningIsSoundOnExhaustiveThreeStateSweep) {
    ScreeningOptions screening;
    screening.runs = 1;
    screening.max_interactions = 1'000;
    analyze::AnalysisOptions linear;
    linear.cone_state_cap = 0;

    std::size_t screened = 0, refuted = 0, checked = 0;
    const auto sweep = [&](StateId p, StateId q, StateId p2, StateId q2) {
        for (int outputs = 0; outputs < 8; ++outputs) {
            ProtocolBuilder b;
            for (StateId s = 0; s < 3; ++s)
                b.add_state("q" + std::to_string(s), (outputs >> s) & 1);
            b.set_input("x", 0);
            b.add_transition(p, q, p2, q2);
            const Protocol protocol = std::move(b).build();
            const Verifier verifier(protocol);
            const auto exact = verifier.infer_threshold(5);
            if (verifier.screening_refutes_threshold(5, screening)) {
                ++screened;
                EXPECT_EQ(exact, std::nullopt)
                    << "screening refuted a genuine threshold: outputs mask " << outputs;
            }
            if (analyze::analyze_protocol(protocol, linear).consensus_refuted[1]) {
                ++refuted;
                EXPECT_EQ(exact, std::nullopt)
                    << "the analyzer refuted a genuine threshold: outputs mask " << outputs;
            }
            ++checked;
        }
    };
    for (StateId p = 0; p < 3; ++p)
        for (StateId q = p; q < 3; ++q)
            for (StateId p2 = 0; p2 < 3; ++p2)
                for (StateId q2 = p2; q2 < 3; ++q2) {
                    if (p == p2 && q == q2) continue;
                    sweep(p, q, p2, q2);
                }
    EXPECT_EQ(checked, 8u * 30);
    // The sweep is full of oscillators, mixed-sink protocols and
    // unreachable accepting states; both checks must actually catch some of
    // them or they are dead code.
    EXPECT_GT(screened, 0u);
    EXPECT_GT(refuted, 0u);
}

// The completion on raw systems (not just protocol-shaped ones), including
// a system whose completion takes several frontier generations, against
// brute force up to the Pottier bound — for the system and its slack form.
TEST(AnalysisSparse, HilbertMatchesBruteForceOnRawSystems) {
    std::size_t checked = 0;
    const auto check = [&](const HomogeneousSystem& system, const std::string& what) {
        checked += expect_hilbert_matches_oracle(system, 200'000, what);
        checked += expect_hilbert_matches_oracle(slack_form(system), 200'000, what + " slack");
    };

    check({2, {{1, -1}}}, "x = y");
    check({2, {{2, -3}}}, "2x = 3y");  // minimal solution (3, 2), several generations out
    check({3, {{1, 1, -2}, {2, 2, -4}}}, "x + y = 2z, doubled");
    check({3, {}}, "empty");  // every unit vector is minimal
    EXPECT_EQ(checked, 6u);

    Rng rng(0xd10);
    for (int round = 0; round < 40; ++round) {
        HomogeneousSystem system;
        system.num_vars = 2 + rng.below(3);
        const std::size_t rows = 1 + rng.below(2);
        for (std::size_t i = 0; i < rows; ++i) {
            std::vector<std::int64_t> row(system.num_vars);
            for (auto& a : row) a = static_cast<std::int64_t>(rng.below(5)) - 2;
            system.rows.push_back(std::move(row));
        }
        check(system, "random round " + std::to_string(round));
    }
    EXPECT_GT(checked, 6u + 20u);
}

}  // namespace
}  // namespace ppsc
