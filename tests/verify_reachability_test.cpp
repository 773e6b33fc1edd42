// Tests for the bounded-population reachability graph and its SCC/closure
// machinery — the semantic foundation of all verification.
#include "verify/reachability.hpp"

#include <gtest/gtest.h>

#include "oracle/graph.hpp"
#include "protocols/threshold.hpp"

namespace ppsc {
namespace {

/// Two-state one-way epidemic: X,A -> A,A.
Protocol epidemic() {
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 1);
    const StateId x = b.add_state("X", 0);
    b.set_input("x", x);
    b.add_transition(x, a, a, a);
    return std::move(b).build();
}

/// Oscillator: A,A <-> B,B; never stabilises from {2·A}.
Protocol oscillator() {
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 1);
    const StateId c = b.add_state("B", 0);
    b.set_input("x", a);
    b.add_transition(a, a, c, c);
    b.add_transition(c, c, a, a);
    return std::move(b).build();
}

TEST(ReachabilityGraph, EpidemicChainIsALine) {
    const Protocol p = epidemic();
    // {4·X, 1·A} -> ... -> {5·A}: five configurations in a line.
    Config root(2);
    root.set(*p.find_state("X"), 4);
    root.set(*p.find_state("A"), 1);
    const Config roots[] = {root};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    EXPECT_EQ(graph.num_nodes(), 5u);
    EXPECT_EQ(graph.num_edges(), 4u);

    const auto scc = graph.compute_sccs();
    EXPECT_EQ(scc.num_components, 5);
    // Exactly one bottom SCC: the all-A configuration.
    int bottoms = 0;
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        const auto comp = static_cast<std::size_t>(scc.component_of[node]);
        if (scc.is_bottom[comp]) {
            ++bottoms;
            EXPECT_EQ(graph.config(static_cast<NodeId>(node))[*p.find_state("A")], 5);
        }
    }
    EXPECT_EQ(bottoms, 1);
}

TEST(ReachabilityGraph, PureInputConfigIsIsolatedWhenSilent) {
    const Protocol p = epidemic();
    // {3·X}: no A agent, nothing ever fires.
    const Config roots[] = {Config::single(2, *p.find_state("X"), 3)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    EXPECT_EQ(graph.num_nodes(), 1u);
    EXPECT_EQ(graph.num_edges(), 0u);
    const auto scc = graph.compute_sccs();
    EXPECT_TRUE(scc.is_bottom[0]);
}

TEST(ReachabilityGraph, OscillatorFormsOneCyclicBottomScc) {
    const Protocol p = oscillator();
    const Config roots[] = {p.initial_config(2)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    EXPECT_EQ(graph.num_nodes(), 2u);
    const auto scc = graph.compute_sccs();
    EXPECT_EQ(scc.num_components, 1);
    EXPECT_TRUE(scc.is_bottom[0]);
}

TEST(ReachabilityGraph, FullSliceEnumeratesAllMultisets) {
    const Protocol p = epidemic();
    // Population 4 over 2 states: 5 multisets.
    const ReachabilityGraph graph = ReachabilityGraph::full_slice(p, 4, {});
    EXPECT_EQ(graph.num_nodes(), 5u);
    // Population 3 over 3 states (unary_threshold(2)): C(5,2) = 10.
    const Protocol t = protocols::unary_threshold(2);
    EXPECT_EQ(ReachabilityGraph::full_slice(t, 3, {}).num_nodes(), 10u);
}

TEST(ReachabilityGraph, FindLocatesConfigs) {
    const Protocol p = epidemic();
    const Config roots[] = {p.initial_config(3)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    EXPECT_TRUE(graph.find(p.initial_config(3)).has_value());
    Config absent(2);
    absent.set(*p.find_state("A"), 3);  // unreachable: no A agent initially
    EXPECT_FALSE(graph.find(absent).has_value());
}

TEST(ReachabilityGraph, BackwardClosure) {
    const Protocol p = epidemic();
    Config root(2);
    root.set(*p.find_state("X"), 2);
    root.set(*p.find_state("A"), 1);
    const Config roots[] = {root};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    ASSERT_EQ(graph.num_nodes(), 3u);

    // Backward closure from the final all-A config covers everything.
    Config final_config(2);
    final_config.set(*p.find_state("A"), 3);
    std::vector<bool> targets(graph.num_nodes(), false);
    targets[static_cast<std::size_t>(*graph.find(final_config))] = true;
    const auto backward = graph.backward_closure(targets);
    EXPECT_EQ(std::count(backward.begin(), backward.end(), true), 3);
}

TEST(ReachabilityGraph, SliceAndClosureMatchOracles) {
    const Protocol p = protocols::unary_threshold(2);
    const ReachabilityGraph slice = ReachabilityGraph::full_slice(p, 4, {});
    const oracle::NaiveGraph naive = oracle::naive_graph(
        p, oracle::slice_configs(p.num_states(), 4), false, oracle::rules_over_support_pairs);
    ASSERT_EQ(slice.num_nodes(), naive.rows.size());
    std::size_t edges = 0;
    for (const auto& out : naive.successors) edges += out.size();
    EXPECT_EQ(slice.num_edges(), edges);

    std::vector<bool> targets(slice.num_nodes(), false);
    targets[0] = true;
    targets[slice.num_nodes() / 2] = true;
    EXPECT_EQ(slice.backward_closure(targets), oracle::backward_closure(slice, targets));
}

TEST(ReachabilityGraph, NodeBudgetThrowsInsteadOfTruncating) {
    const Protocol p = protocols::unary_threshold(5);
    ReachabilityOptions tight;
    tight.max_nodes = 3;
    const Config roots[] = {p.initial_config(6)};
    EXPECT_THROW(ReachabilityGraph::explore(p, roots, tight), std::length_error);
}

TEST(ReachabilityGraph, NodeBudgetBoundaryIsExact) {
    // A graph of exactly max_nodes nodes fits; one node less throws — for
    // forward exploration and for a full slice alike.
    const Protocol p = protocols::unary_threshold(5);
    const Config roots[] = {p.initial_config(6)};
    const std::size_t size = ReachabilityGraph::explore(p, roots, {}).num_nodes();
    ASSERT_GT(size, 3u);
    ReachabilityOptions budget;
    budget.max_nodes = size;
    EXPECT_EQ(ReachabilityGraph::explore(p, roots, budget).num_nodes(), size);
    budget.max_nodes = size - 1;
    EXPECT_THROW(ReachabilityGraph::explore(p, roots, budget), std::length_error);

    const std::size_t slice = ReachabilityGraph::full_slice(p, 4, {}).num_nodes();
    budget.max_nodes = slice;
    EXPECT_EQ(ReachabilityGraph::full_slice(p, 4, budget).num_nodes(), slice);
    budget.max_nodes = slice - 1;
    EXPECT_THROW(ReachabilityGraph::full_slice(p, 4, budget), std::length_error);
}

TEST(ReachabilityGraph, RootValidation) {
    const Protocol p = epidemic();
    EXPECT_THROW(ReachabilityGraph::explore(p, {}, {}), std::invalid_argument);
    const Config bad_dim[] = {Config(5)};
    EXPECT_THROW(ReachabilityGraph::explore(p, bad_dim, {}), std::invalid_argument);
    const Config mixed[] = {p.initial_config(2), p.initial_config(3)};
    EXPECT_THROW(ReachabilityGraph::explore(p, mixed, {}), std::invalid_argument);
    EXPECT_THROW(ReachabilityGraph::full_slice(p, 1, {}), std::invalid_argument);
}

TEST(ReachabilityGraph, AgentCountInvariantAcrossAllNodes) {
    const Protocol p = protocols::unary_threshold(3);
    const Config roots[] = {p.initial_config(5)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
    for (std::size_t node = 0; node < graph.num_nodes(); ++node)
        EXPECT_EQ(graph.config(static_cast<NodeId>(node)).size(), 5);
}

}  // namespace
}  // namespace ppsc
