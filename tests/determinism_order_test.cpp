// Regression tests for the unordered-container audit: the tree's hashed
// lookups in trajectory-affecting code (Protocol::pair_of in
// src/core/protocol.cpp, the `seen` dedup sets in
// src/diophantine/pottier.cpp, the ReachabilityGraph slot table in
// src/verify/reachability.hpp) are lookup- or dedup-only — nothing
// observable may depend on bucket or slot order.  ppsc_lint
// rule R2 keeps new *iteration* out of these files; these tests pin the
// behavioural half of the audit: permuting the order in which the keys are
// *inserted* (transition order, root order, constraint-row order) must
// leave every observable result identical, and repeated identical calls
// must reproduce byte-identical outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "diophantine/pottier.hpp"
#include "oracle/hilbert.hpp"
#include "verify/reachability.hpp"

namespace ppsc {
namespace {

// --- Protocol::pair_of (lookup-only unordered_map) -------------------------

/// A protocol with several non-silent pairs, one of which carries two
/// rules; `reversed` flips the transition insertion order.
Protocol build_fan(bool reversed) {
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 0);
    const StateId c = b.add_state("B", 0);
    const StateId d = b.add_state("C", 0);
    const StateId e = b.add_state("D", 1);
    b.set_input("x", a);
    struct Row {
        StateId p, q, p2, q2;
    };
    std::vector<Row> rows = {
        {a, a, c, c}, {a, c, d, d}, {c, d, e, e}, {d, d, e, a}, {d, d, e, c}, {a, e, e, e},
    };
    if (reversed) std::reverse(rows.begin(), rows.end());
    for (const Row& row : rows) b.add_transition(row.p, row.q, row.p2, row.q2);
    return std::move(b).build();
}

/// The rules of pair (p, q) as a canonically sorted list of Transitions —
/// the order-free semantic content of the pair lookup.
std::vector<Transition> pair_rules(const Protocol& protocol, StateId p, StateId q) {
    std::vector<Transition> rules;
    for (const TransitionId id : protocol.rules_for_pair(p, q)) {
        rules.push_back(protocol.transitions()[static_cast<std::size_t>(id)]);
    }
    std::sort(rules.begin(), rules.end(), [](const Transition& x, const Transition& y) {
        return std::tie(x.pre1, x.pre2, x.post1, x.post2) <
               std::tie(y.pre1, y.pre2, y.post1, y.post2);
    });
    return rules;
}

TEST(OrderIndependence, PairLookupIgnoresTransitionInsertionOrder) {
    const Protocol forward = build_fan(false);
    const Protocol backward = build_fan(true);
    ASSERT_EQ(forward.num_states(), backward.num_states());
    ASSERT_EQ(forward.num_transitions(), backward.num_transitions());

    // Both insertion orders must agree on the rules of every pair.
    const auto n = static_cast<StateId>(forward.num_states());
    for (StateId p = 0; p < n; ++p) {
        for (StateId q = p; q < n; ++q) {
            EXPECT_EQ(pair_rules(forward, p, q), pair_rules(backward, p, q))
                << "pair (" << static_cast<int>(p) << ", " << static_cast<int>(q) << ")";
        }
    }
}

// --- ReachabilityGraph slot table (lookup-only open addressing) ------------
//
// Node ids are insertion (BFS) order; the row hash only places ids in slots.

/// Reachability verdicts keyed by configuration (NodeIds are exploration-
/// order-dependent and deliberately not compared).
struct Verdicts {
    std::size_t num_nodes = 0;
    std::size_t num_edges = 0;
    int num_bottom_components = 0;
    // For each explored config (found via the other graph's configs): is it
    // in the backward closure of the bottom SCCs?
    std::vector<std::pair<Config, bool>> can_reach_bottom;
};

Verdicts verdicts_of(const ReachabilityGraph& graph) {
    Verdicts v;
    v.num_nodes = graph.num_nodes();
    v.num_edges = graph.num_edges();
    const auto scc = graph.compute_sccs();
    std::vector<bool> bottoms(static_cast<std::size_t>(graph.num_nodes()), false);
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        const auto comp = static_cast<std::size_t>(scc.component_of[node]);
        if (scc.is_bottom[comp]) bottoms[node] = true;
    }
    for (std::size_t comp = 0; comp < static_cast<std::size_t>(scc.num_components); ++comp) {
        if (scc.is_bottom[comp]) ++v.num_bottom_components;
    }
    const std::vector<bool> closure = graph.backward_closure(bottoms);
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        v.can_reach_bottom.emplace_back(graph.config(static_cast<NodeId>(node)), closure[node]);
    }
    std::sort(v.can_reach_bottom.begin(), v.can_reach_bottom.end(),
              [](const auto& x, const auto& y) { return x.first.counts() < y.first.counts(); });
    return v;
}

TEST(OrderIndependence, ReachabilityVerdictsIgnoreRootOrder) {
    // Epidemic with a side state: X,A -> A,A and X,B -> B,B compete.
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 1);
    const StateId c = b.add_state("B", 0);
    const StateId x = b.add_state("X", 0);
    b.set_input("x", x);
    b.add_transition(x, a, a, a);
    b.add_transition(x, c, c, c);
    Protocol p = std::move(b).build();

    Config r1(3), r2(3), r3(3);
    r1.set(x, 3);
    r1.set(a, 1);
    r2.set(x, 3);
    r2.set(c, 1);
    r3.set(x, 2);
    r3.set(a, 1);
    r3.set(c, 1);

    const std::vector<Config> order_a = {r1, r2, r3};
    const std::vector<Config> order_b = {r3, r1, r2};
    const auto va = verdicts_of(ReachabilityGraph::explore(p, order_a, {}));
    const auto vb = verdicts_of(ReachabilityGraph::explore(p, order_b, {}));

    EXPECT_EQ(va.num_nodes, vb.num_nodes);
    EXPECT_EQ(va.num_edges, vb.num_edges);
    EXPECT_EQ(va.num_bottom_components, vb.num_bottom_components);
    ASSERT_EQ(va.can_reach_bottom.size(), vb.can_reach_bottom.size());
    for (std::size_t i = 0; i < va.can_reach_bottom.size(); ++i) {
        EXPECT_EQ(va.can_reach_bottom[i].first, vb.can_reach_bottom[i].first);
        EXPECT_EQ(va.can_reach_bottom[i].second, vb.can_reach_bottom[i].second) << "config " << i;
    }
}

// --- Pottier `seen` sets (insert-only dedup unordered_sets) ----------------

TEST(OrderIndependence, HilbertBasisIgnoresRowOrderAndIsRepeatable) {
    // 2a + b = 2c together with a + b = c + d; minimal solutions are small
    // enough to enumerate but plural enough to expose ordering leaks.
    HomogeneousSystem forward;
    forward.num_vars = 4;
    forward.rows = {{2, 1, -2, 0}, {1, 1, -1, -1}};
    HomogeneousSystem backward;
    backward.num_vars = 4;
    backward.rows = {{1, 1, -1, -1}, {2, 1, -2, 0}};

    // Identical input twice: the dedup sets must not leak bucket order into
    // the result — the output must be byte-identical, not merely set-equal.
    const auto once = hilbert_basis_equalities(forward);
    const auto twice = hilbert_basis_equalities(forward);
    EXPECT_EQ(once, twice);

    // Permuted constraint rows: same solution set, and it is the exact
    // Hilbert basis (brute force up to the Pottier bound).
    auto of_forward = hilbert_basis_equalities(forward);
    auto of_backward = hilbert_basis_equalities(backward);
    std::sort(of_forward.begin(), of_forward.end());
    std::sort(of_backward.begin(), of_backward.end());
    EXPECT_EQ(of_forward, of_backward);
    EXPECT_FALSE(of_forward.empty());
    EXPECT_EQ(of_forward, oracle::exact_hilbert_basis(forward, 10'000'000));
}

}  // namespace
}  // namespace ppsc
