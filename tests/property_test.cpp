// Property-based cross-validation on randomly generated protocols.
//
// The library's components implement the same semantics through different
// algorithms (stochastic simulation vs exact graph search vs Parikh
// arithmetic vs stable-set backward analysis).  On random protocols —
// which exercise corners no hand-written construction hits — they must
// agree:
//
//   P1  reachability graphs conserve the population and report a valid
//       SCC partition (bottom SCCs really have no exits);
//   P2  if the simulator claims convergence with output b, the exact
//       verifier agrees that fair executions from that input compute b;
//   P3  stable sets are downward closed (Lemma 3.1) on random protocols;
//   P4  execution endpoints match Parikh displacement (Lemma 5.1(i));
//   P5  monotonicity: reachability is preserved under adding agents
//       (Section 2.2), sampled;
//   P6  Contejean–Devie Hilbert bases match brute force on random systems.
#include <gtest/gtest.h>

#include "core/parikh.hpp"
#include "diophantine/pottier.hpp"
#include "oracle/hilbert.hpp"
#include "sim/simulator.hpp"
#include "stable/stable_sets.hpp"
#include "support/rng.hpp"
#include "verify/verifier.hpp"

namespace ppsc {
namespace {

/// Random protocol: n states, each unordered pair gets 1..2 random rules
/// (possibly silent), random outputs, input variable at state 0.
Protocol random_protocol(Rng& rng, std::size_t n) {
    ProtocolBuilder b;
    for (std::size_t q = 0; q < n; ++q)
        b.add_state("q" + std::to_string(q), static_cast<int>(rng.below(2)));
    b.set_input("x", 0);
    for (std::size_t q = 0; q < n; ++q) {
        for (std::size_t p = 0; p <= q; ++p) {
            const std::uint64_t rules = 1 + rng.below(2);
            for (std::uint64_t k = 0; k < rules; ++k) {
                b.add_transition(static_cast<StateId>(p), static_cast<StateId>(q),
                                 static_cast<StateId>(rng.below(n)),
                                 static_cast<StateId>(rng.below(n)));
            }
        }
    }
    return std::move(b).build();
}

class RandomProtocolTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProtocolTest, P1_GraphInvariantsAndSccPartition) {
    Rng rng(GetParam());
    for (int trial = 0; trial < 8; ++trial) {
        const Protocol p = random_protocol(rng, 2 + rng.below(3));
        const AgentCount population = 3 + static_cast<AgentCount>(rng.below(3));
        const Config roots[] = {p.initial_config(population)};
        const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});
        const auto scc = graph.compute_sccs();
        ASSERT_GT(scc.num_components, 0);
        for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
            EXPECT_EQ(graph.config(static_cast<NodeId>(node)).size(), population);
            const auto component = scc.component_of[node];
            ASSERT_GE(component, 0);
            ASSERT_LT(component, scc.num_components);
            // Bottom components have no cross-component successors.
            for (const NodeId next : graph.successors(static_cast<NodeId>(node))) {
                const auto next_component = scc.component_of[static_cast<std::size_t>(next)];
                if (scc.is_bottom[static_cast<std::size_t>(component)]) {
                    EXPECT_EQ(next_component, component);
                }
                // Tarjan completion order: edges never point to a strictly
                // larger component id.
                EXPECT_LE(next_component, component);
            }
        }
    }
}

TEST_P(RandomProtocolTest, P2_SimulatorConvergenceSoundAgainstVerifier) {
    Rng rng(GetParam() ^ 0xabcdef);
    for (int trial = 0; trial < 12; ++trial) {
        const Protocol p = random_protocol(rng, 2 + rng.below(3));
        const Simulator simulator(p);
        const Verifier verifier(p);
        const AgentCount population = 2 + static_cast<AgentCount>(rng.below(4));
        SimulationOptions options;
        options.max_interactions = 20'000;
        Rng sim_rng(rng.next());
        const SimulationResult result = simulator.run_input(population, sim_rng, options);
        if (!result.converged || !result.output) continue;
        // The simulator claims stability with consensus b: then the final
        // configuration must be b-stable, hence every fair continuation
        // keeps output b.  Check against the exact verifier verdict for
        // the final configuration's own reachability.
        const Config finals[] = {result.final_config};
        const ReachabilityGraph graph = ReachabilityGraph::explore(p, finals, {});
        for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
            EXPECT_EQ(p.consensus_output(graph.config(static_cast<NodeId>(node))),
                      result.output)
                << "simulator declared stability on a non-stable configuration";
        }
    }
}

TEST_P(RandomProtocolTest, P3_StableSetsDownwardClosed) {
    Rng rng(GetParam() ^ 0x517e);
    for (int trial = 0; trial < 4; ++trial) {
        const Protocol p = random_protocol(rng, 2 + rng.below(2));
        const StableAnalysis analysis(p, 5);
        EXPECT_EQ(analysis.downward_closure_violation(), std::nullopt);
    }
}

TEST_P(RandomProtocolTest, P4_ParikhConsistencyOfRandomWalks) {
    Rng rng(GetParam() ^ 0x9a91c4);
    for (int trial = 0; trial < 20; ++trial) {
        const Protocol p = random_protocol(rng, 2 + rng.below(4));
        const Simulator simulator(p);
        const AgentCount population = 3 + static_cast<AgentCount>(rng.below(5));
        const Config start = p.initial_config(population);
        Simulator::Trajectory trajectory(simulator, start);
        ParikhImage parikh(p.num_transitions(), 0);
        for (int step = 0; step < 50; ++step) {
            const auto fired = trajectory.step(rng);
            if (fired) parikh[static_cast<std::size_t>(*fired)] += 1;
        }
        const auto predicted = apply_parikh(start, p, parikh);
        for (std::size_t q = 0; q < p.num_states(); ++q)
            ASSERT_EQ(predicted[q], trajectory.config()[static_cast<StateId>(q)]);
    }
}

TEST_P(RandomProtocolTest, P5_MonotonicityOfReachability) {
    Rng rng(GetParam() ^ 0x30303);
    for (int trial = 0; trial < 5; ++trial) {
        const Protocol p = random_protocol(rng, 2 + rng.below(2));
        const AgentCount population = 3;
        const Config root = p.initial_config(population);
        const Config roots[] = {root};
        const ReachabilityGraph graph = ReachabilityGraph::explore(p, roots, {});

        // Add one agent in a random state; every C' reachable from C must
        // give C' + D reachable from C + D.
        Config extra(p.num_states());
        extra.set(static_cast<StateId>(rng.below(p.num_states())), 1);
        const Config bigger_roots[] = {root + extra};
        const ReachabilityGraph bigger =
            ReachabilityGraph::explore(p, bigger_roots, {});
        for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
            const Config lifted = graph.config(static_cast<NodeId>(node)) + extra;
            EXPECT_TRUE(bigger.find(lifted).has_value())
                << "monotonicity violated for " << lifted.to_string();
        }
    }
}

TEST_P(RandomProtocolTest, P6_HilbertBasisMatchesBruteForce) {
    Rng rng(GetParam() ^ 0xd10);
    for (int trial = 0; trial < 6; ++trial) {
        HomogeneousSystem system;
        system.num_vars = 2 + rng.below(2);
        const std::size_t rows = 1 + rng.below(2);
        for (std::size_t i = 0; i < rows; ++i) {
            std::vector<std::int64_t> row;
            for (std::size_t j = 0; j < system.num_vars; ++j)
                row.push_back(static_cast<std::int64_t>(rng.below(5)) - 2);
            system.rows.push_back(std::move(row));
        }
        HilbertOptions options;
        options.max_norm1 = 400;
        std::vector<std::vector<std::int64_t>> fast;
        try {
            fast = hilbert_basis_equalities(system, options);
        } catch (const std::length_error&) {
            continue;  // pathological random system; budget is the contract
        }
        auto slow = oracle::brute_force_minimal_equalities(system, 5);
        for (const auto& y : slow) {
            EXPECT_NE(std::find(fast.begin(), fast.end(), y), fast.end())
                << "missing minimal solution";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProtocolTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace ppsc
