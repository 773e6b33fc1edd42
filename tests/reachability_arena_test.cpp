// The flat-arena ReachabilityGraph against naive oracles, and arena reuse.
//
// The graph oracle (tests/oracle/graph.hpp) is the textbook std::map BFS.
// In the arena's enumeration order it must agree with explore() and
// full_slice() node for node — ids, rows, sorted successor lists and roots —
// and slices must also match the support × support enumeration.  The SCC
// oracle is the two-word iterative Tarjan: compute_sccs (Pearce's one-word
// variant, its scratch kept in the arena) must give the same component ids,
// count and bottom flags on every graph, fresh or re-explored.  Reuse:
// ReachabilityGraph::reexplore into an arena that held anything before (an
// aborted graph, a larger graph, a protocol with a different |Q|) must give
// exactly the graph a fresh explore gives, whatever the arena reserved
// beforehand.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "oracle/graph.hpp"
#include "protocols/threshold.hpp"
#include "support/rng.hpp"
#include "verify/reachability.hpp"

namespace ppsc {
namespace {

using oracle::NaiveGraph;

void expect_same_sccs(const ReachabilityGraph::SccResult& a,
                      const ReachabilityGraph::SccResult& b, const std::string& what) {
    EXPECT_EQ(a.num_components, b.num_components) << what;
    EXPECT_EQ(a.component_of, b.component_of) << what;
    EXPECT_EQ(a.is_bottom, b.is_bottom) << what;
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
    expect_same_sccs(graph.compute_sccs(), oracle::tarjan_sccs(graph), what + " (SCCs)");
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

/// Both constructors against the oracle (slices under both enumeration
/// orders); the explore cases run through one reused arena.
void check_protocol(const Protocol& p, AgentCount max_input, AgentCount max_slice,
                    ReachabilityGraph& arena, const std::string& what) {
    for (AgentCount input = 2; input <= max_input; ++input) {
        // A duplicate root and a second, unrelated root of the same size.
        const std::vector<Config> roots = {p.initial_config(input),
                                           Config::single(p.num_states(), 1, input),
                                           p.initial_config(input)};
        arena.reexplore(p, roots);
        expect_matches_oracle(arena, oracle::naive_graph(p, roots, true, oracle::rules_in_arena_order),
                              what + ", input " + std::to_string(input));
        const ReachabilityGraph fresh = ReachabilityGraph::explore(p, roots);
        expect_same_sccs(fresh.compute_sccs(), oracle::tarjan_sccs(fresh),
                         what + ", input " + std::to_string(input) + " (fresh SCCs)");
    }
    for (AgentCount population = 2; population <= max_slice; ++population) {
        const ReachabilityGraph slice = ReachabilityGraph::full_slice(p, population);
        const std::vector<Config> configs = oracle::slice_configs(p.num_states(), population);
        const std::string at = what + ", slice " + std::to_string(population);
        expect_matches_oracle(slice,
                              oracle::naive_graph(p, configs, false, oracle::rules_in_arena_order),
                              at + " (arena order)");
        expect_matches_oracle(
            slice, oracle::naive_graph(p, configs, false, oracle::rules_over_support_pairs),
            at + " (support pairs)");
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
            arena.reexplore(p, roots, {.max_nodes = 60'000});
            const std::string what =
                "candidate " + std::to_string(candidate) + ", input " + std::to_string(input);
            expect_matches_oracle(
                arena, oracle::naive_graph(p, {roots[0]}, true, oracle::rules_in_arena_order), what);
            const ReachabilityGraph fresh = ReachabilityGraph::explore(p, roots, {.max_nodes = 60'000});
            expect_same_sccs(fresh.compute_sccs(), oracle::tarjan_sccs(fresh), what + " (fresh SCCs)");
        }
        check_protocol(p, 8, 8, arena, "candidate " + std::to_string(candidate));
    }
}

TEST(ReachabilityArena, ReservedArenaMatchesOracleAndFreshSccs) {
    // busy_beaver_search reserves each worker's arena once, for the largest
    // graph of the search.  Whatever the reservation — too narrow, too few
    // nodes or edges, exact, or far too large — reexplore() must still give
    // the oracle's graph node for node, and compute_sccs() on the reused
    // arena (its SCC scratch kept from the previous graph) must give the
    // components a fresh graph gives.
    constexpr AgentCount kMaxInput = 12;
    constexpr std::size_t kSlice = 1820;  // C(12 + 4, 4): the n = 5 slice at 12
    struct Reservation {
        std::size_t width, nodes, edges;
    };
    const Reservation reservations[] = {
        {1, 1, 1}, {5, 40, 100}, {5, kSlice, kSlice * 15}, {8, 8 * kSlice, 8 * kSlice * 15}};
    Rng rng(0x5e7e);
    for (int candidate = 0; candidate < 3; ++candidate) {
        const Protocol p = sampled_candidate(rng);
        for (const Reservation& r : reservations) {
            ReachabilityGraph arena;
            arena.reserve(r.width, r.nodes, r.edges);
            for (AgentCount input = 2; input <= kMaxInput; ++input) {
                const std::string what = "candidate " + std::to_string(candidate) +
                                         ", reserved nodes " + std::to_string(r.nodes) +
                                         ", input " + std::to_string(input);
                const Config roots[] = {p.initial_config(input)};
                arena.reexplore(p, roots);
                expect_matches_oracle(
                    arena, oracle::naive_graph(p, {roots[0]}, true, oracle::rules_in_arena_order),
                    what);
                const ReachabilityGraph fresh = ReachabilityGraph::explore(p, roots);
                const ReachabilityGraph::SccResult reused = arena.compute_sccs();
                expect_same_sccs(reused, fresh.compute_sccs(), what);
                expect_same_sccs(arena.compute_sccs(), reused, what + " (second call)");
            }
            // Reserving again changes capacity only: the graph held stays.
            arena.reserve(r.width, 2 * r.nodes, 2 * r.edges);
            const Config last[] = {p.initial_config(kMaxInput)};
            expect_same_graph(arena, ReachabilityGraph::explore(p, last), "after re-reserve");
        }
    }
}

TEST(ReachabilityArena, ReuseAfterBudgetAbortMatchesFreshExplore) {
    const Protocol p = protocols::unary_threshold(5);
    const Config big[] = {p.initial_config(12)};
    const Config small[] = {p.initial_config(6)};
    ReachabilityGraph arena;
    EXPECT_THROW(arena.reexplore(p, big, {.max_nodes = 20}), std::length_error);
    // The budget is checked before a row is appended or indexed: the
    // aborted arena holds exactly the budget's nodes, the first 20 of the
    // unbounded exploration, and its index holds exactly them.  Looking up
    // any later node (the one that hit the budget among them) misses
    // without reading past the rows.
    ASSERT_EQ(arena.num_nodes(), 20u);
    const ReachabilityGraph full = ReachabilityGraph::explore(p, big);
    ASSERT_GT(full.num_nodes(), 20u);
    for (NodeId id = 0; id < static_cast<NodeId>(full.num_nodes()); ++id) {
        const std::optional<NodeId> found = arena.find(full.config(id));
        if (id < 20)
            EXPECT_EQ(found, id);
        else
            EXPECT_EQ(found, std::nullopt) << "node " << id;
    }
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
