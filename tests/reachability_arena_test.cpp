// The flat-arena ReachabilityGraph against a naive oracle, and arena reuse.
//
// The oracle is the textbook BFS: std::map interning of count vectors and
// Config-level firing through Protocol::fire.  It enumerates successors in
// the same order as the arena (per ClosureCompute), so the two must agree
// node for node — ids, rows, sorted successor lists and roots — not just up
// to isomorphism.  Reuse: ReachabilityGraph::reexplore into an arena that
// held anything before (an aborted graph, a larger graph, a protocol with a
// different |Q|) must give exactly the graph a fresh explore gives.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "protocols/threshold.hpp"
#include "support/rng.hpp"
#include "verify/reachability.hpp"

namespace ppsc {
namespace {

struct NaiveGraph {
    std::vector<std::vector<AgentCount>> rows;
    std::vector<std::vector<NodeId>> successors;
    std::vector<NodeId> roots;
};

/// Interns `seeds` in order, then closes the graph by BFS.
NaiveGraph naive_graph(const Protocol& p, const std::vector<Config>& seeds, bool seeds_are_roots,
                       ClosureCompute compute) {
    NaiveGraph g;
    std::map<std::vector<AgentCount>, NodeId> index;
    const auto intern = [&](const Config& c) {
        const auto [it, inserted] = index.try_emplace(c.counts(), static_cast<NodeId>(g.rows.size()));
        if (inserted) g.rows.push_back(c.counts());
        return it->second;
    };
    for (const Config& seed : seeds) {
        const NodeId id = intern(seed);
        if (seeds_are_roots) g.roots.push_back(id);
    }
    for (std::size_t node = 0; node < g.rows.size(); ++node) {
        const Config current = Config::from_counts(g.rows[node]);
        // The rules enabled at `current`, in the arena's enumeration order.
        std::vector<TransitionId> rules;
        const auto add = [&](std::span<const TransitionId> ids) {
            rules.insert(rules.end(), ids.begin(), ids.end());
        };
        const std::vector<StateId> support = current.support();
        for (std::size_t i = 0; i < support.size(); ++i) {
            const StateId q = support[i];
            if (compute == ClosureCompute::reference) {
                for (std::size_t j = i; j < support.size(); ++j)
                    if (j > i || current[q] >= 2) add(p.rules_for_pair(q, support[j]));
                continue;
            }
            if (current[q] >= 2 && p.self_pair(q) != Protocol::kNoPair)
                add(p.rules_for_pair_id(p.self_pair(q)));
            for (const Protocol::PairNeighbor& n : p.pair_neighbors(q))
                if (n.partner > q && current[n.partner] > 0) add(p.rules_for_pair_id(n.pair));
        }
        std::vector<NodeId> out;
        for (const TransitionId rule : rules) {
            const NodeId target =
                intern(p.fire(current, p.transitions()[static_cast<std::size_t>(rule)]));
            if (target != static_cast<NodeId>(node)) out.push_back(target);
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        g.successors.push_back(std::move(out));
    }
    return g;
}

/// Every configuration of `population` agents, in full_slice's order (the
/// count of state 0 descending, then recursively).
std::vector<Config> slice_configs(std::size_t num_states, AgentCount population) {
    std::vector<Config> configs;
    std::vector<AgentCount> counts(num_states, 0);
    const auto recurse = [&](const auto& self, std::size_t state, AgentCount remaining) -> void {
        if (state + 1 == num_states) {
            counts[state] = remaining;
            configs.push_back(Config::from_counts(counts));
            return;
        }
        for (AgentCount c = remaining; c >= 0; --c) {
            counts[state] = c;
            self(self, state + 1, remaining - c);
        }
    };
    recurse(recurse, 0, population);
    return configs;
}

void expect_matches_oracle(const ReachabilityGraph& graph, const NaiveGraph& oracle,
                           const std::string& what) {
    ASSERT_EQ(graph.num_nodes(), oracle.rows.size()) << what;
    std::size_t edges = 0;
    for (std::size_t node = 0; node < oracle.rows.size(); ++node) {
        const auto id = static_cast<NodeId>(node);
        const auto row = graph.row(id);
        ASSERT_EQ(std::vector<AgentCount>(row.begin(), row.end()), oracle.rows[node])
            << what << ", node " << node;
        const auto out = graph.successors(id);
        ASSERT_EQ(std::vector<NodeId>(out.begin(), out.end()), oracle.successors[node])
            << what << ", node " << node;
        ASSERT_EQ(graph.find(graph.config(id)), id) << what << ", node " << node;
        edges += out.size();
    }
    EXPECT_EQ(graph.num_edges(), edges) << what;
    EXPECT_EQ(std::vector<NodeId>(graph.roots().begin(), graph.roots().end()), oracle.roots)
        << what;
}

void expect_same_graph(const ReachabilityGraph& a, const ReachabilityGraph& b,
                       const std::string& what) {
    ASSERT_EQ(a.num_nodes(), b.num_nodes()) << what;
    ASSERT_EQ(a.num_edges(), b.num_edges()) << what;
    EXPECT_EQ(std::vector<NodeId>(a.roots().begin(), a.roots().end()),
              std::vector<NodeId>(b.roots().begin(), b.roots().end()))
        << what;
    for (std::size_t node = 0; node < a.num_nodes(); ++node) {
        const auto id = static_cast<NodeId>(node);
        ASSERT_EQ(a.config(id), b.config(id)) << what << ", node " << node;
        ASSERT_EQ(a.find(b.config(id)), id) << what << ", node " << node;
        const auto x = a.successors(id);
        const auto y = b.successors(id);
        ASSERT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end())) << what << ", node " << node;
    }
    const auto sa = a.compute_sccs();
    const auto sb = b.compute_sccs();
    EXPECT_EQ(sa.component_of, sb.component_of) << what;
    EXPECT_EQ(sa.is_bottom, sb.is_bottom) << what;
    std::vector<bool> targets(a.num_nodes(), false);
    targets.back() = true;
    EXPECT_EQ(a.backward_closure(targets), b.backward_closure(targets)) << what;
}

ReachabilityOptions options_for(ClosureCompute compute, std::size_t max_nodes = 2'000'000) {
    ReachabilityOptions options;
    options.compute = compute;
    options.max_nodes = max_nodes;
    return options;
}

/// Both constructors and both enumeration orders against the oracle; the
/// explore cases run through one reused arena.
void check_protocol(const Protocol& p, AgentCount max_input, AgentCount max_slice,
                    ReachabilityGraph& arena, const std::string& what) {
    for (const ClosureCompute compute : {ClosureCompute::sparse, ClosureCompute::reference}) {
        const std::string mode = compute == ClosureCompute::sparse ? " sparse" : " reference";
        for (AgentCount input = 2; input <= max_input; ++input) {
            // A duplicate root and a second, unrelated root of the same size.
            const std::vector<Config> roots = {
                p.initial_config(input), Config::single(p.num_states(), 1, input),
                p.initial_config(input)};
            arena.reexplore(p, roots, options_for(compute));
            expect_matches_oracle(arena, naive_graph(p, roots, true, compute),
                                  what + mode + ", input " + std::to_string(input));
        }
        for (AgentCount population = 2; population <= max_slice; ++population) {
            const ReachabilityGraph slice =
                ReachabilityGraph::full_slice(p, population, options_for(compute));
            expect_matches_oracle(
                slice, naive_graph(p, slice_configs(p.num_states(), population), false, compute),
                what + mode + ", slice " + std::to_string(population));
        }
    }
}

// Every transition set over 3 states with at most two non-silent
// transitions — the corpus of tests/analysis_sparse_test.cpp (outputs do
// not affect the graph, so one output mask suffices).
TEST(ReachabilityArena, MatchesOracleOnExhaustiveThreeStateCorpus) {
    struct Rule {
        StateId p, q, p2, q2;
    };
    std::vector<Rule> rules;
    for (StateId p = 0; p < 3; ++p)
        for (StateId q = p; q < 3; ++q)
            for (StateId p2 = 0; p2 < 3; ++p2)
                for (StateId q2 = p2; q2 < 3; ++q2)
                    if (p != p2 || q != q2) rules.push_back({p, q, p2, q2});
    ASSERT_EQ(rules.size(), 30u);

    ReachabilityGraph arena;
    std::size_t checked = 0;
    const auto check = [&](const std::vector<Rule>& chosen) {
        ProtocolBuilder b;
        for (StateId s = 0; s < 3; ++s) b.add_state("q" + std::to_string(s), s == 2 ? 1 : 0);
        b.set_input("x", 0);
        for (const Rule& r : chosen) b.add_transition(r.p, r.q, r.p2, r.q2);
        check_protocol(std::move(b).build(), 6, 5, arena, "corpus " + std::to_string(checked));
        ++checked;
    };
    check({});
    for (std::size_t i = 0; i < rules.size(); ++i) {
        check({rules[i]});
        for (std::size_t j = i + 1; j < rules.size(); ++j) check({rules[i], rules[j]});
    }
    EXPECT_EQ(checked, 1u + 30u + 30u * 29u / 2u);
}

/// A random deterministic 5-state table as busy_beaver_search samples it.
Protocol sampled_candidate(Rng& rng) {
    constexpr std::size_t n = 5;
    std::vector<std::pair<StateId, StateId>> pairs;
    for (StateId q = 0; q < static_cast<StateId>(n); ++q)
        for (StateId p = 0; p <= q; ++p) pairs.emplace_back(p, q);
    ProtocolBuilder b;
    const std::uint64_t outputs = 1 + rng.below((1u << n) - 1);
    for (std::size_t q = 0; q < n; ++q)
        b.add_state("q" + std::to_string(q), static_cast<int>((outputs >> q) & 1u));
    b.set_input("x", 0);
    for (const auto& [p, q] : pairs) {
        const auto& [r, s] = pairs[rng.below(pairs.size())];
        b.add_transition(p, q, r, s);
    }
    return std::move(b).build();
}

TEST(ReachabilityArena, MatchesOracleOnSampledBusyBeaverCandidates) {
    Rng rng(0xa7e9a);
    ReachabilityGraph arena;
    for (int candidate = 0; candidate < 4; ++candidate) {
        const Protocol p = sampled_candidate(rng);
        for (AgentCount input = 2; input <= 24; ++input) {
            const Config roots[] = {p.initial_config(input)};
            arena.reexplore(p, roots, options_for(ClosureCompute::sparse, 60'000));
            expect_matches_oracle(
                arena, naive_graph(p, {roots[0]}, true, ClosureCompute::sparse),
                "candidate " + std::to_string(candidate) + ", input " + std::to_string(input));
        }
        check_protocol(p, 8, 8, arena, "candidate " + std::to_string(candidate));
    }
}

TEST(ReachabilityArena, ReuseAfterBudgetAbortMatchesFreshExplore) {
    const Protocol p = protocols::unary_threshold(5);
    const Config big[] = {p.initial_config(12)};
    const Config small[] = {p.initial_config(6)};
    ReachabilityGraph arena;
    EXPECT_THROW(arena.reexplore(p, big, options_for(ClosureCompute::sparse, 20)),
                 std::length_error);
    // The budget is checked before a row is inserted: the aborted arena
    // holds exactly the budget's nodes, and its table indexes exactly them.
    ASSERT_EQ(arena.num_nodes(), 20u);
    for (NodeId id = 0; id < 20; ++id) EXPECT_EQ(arena.find(arena.config(id)), id);
    arena.reexplore(p, small);
    expect_same_graph(arena, ReachabilityGraph::explore(p, small), "after abort");
}

TEST(ReachabilityArena, ReuseAfterLargerGraphMatchesFreshExplore) {
    const Protocol p = protocols::collector_threshold(5);
    const Config big[] = {p.initial_config(14)};
    const Config small[] = {p.initial_config(4)};
    ReachabilityGraph arena;
    arena.reexplore(p, big);
    ASSERT_GT(arena.num_nodes(), 500u);  // several slot-table doublings
    // Build the lazy reverse CSR too, so a stale one would show.
    std::vector<bool> targets(arena.num_nodes(), false);
    targets.front() = true;
    (void)arena.backward_closure(targets);
    arena.reexplore(p, small);
    expect_same_graph(arena, ReachabilityGraph::explore(p, small), "after larger graph");
}

TEST(ReachabilityArena, ReuseAcrossProtocolsWithDifferentStateCounts) {
    const Protocol wide = protocols::collector_threshold(9);
    const Protocol narrow = protocols::unary_threshold(2);
    ASSERT_NE(wide.num_states(), narrow.num_states());
    const Config wide_roots[] = {wide.initial_config(7)};
    const Config narrow_roots[] = {narrow.initial_config(7)};
    ReachabilityGraph arena;
    arena.reexplore(wide, wide_roots);
    arena.reexplore(narrow, narrow_roots);
    expect_same_graph(arena, ReachabilityGraph::explore(narrow, narrow_roots), "narrow after wide");
    EXPECT_EQ(&arena.protocol(), &narrow);
    arena.reexplore(wide, wide_roots);
    expect_same_graph(arena, ReachabilityGraph::explore(wide, wide_roots), "wide after narrow");
}

}  // namespace
}  // namespace ppsc
