// Tests for the pair-weight Fenwick tree behind fired-step pair selection:
// per-seed equivalence with the reference O(#pairs) cumulative scan
// (PairSelect::scan), an exhaustive small-protocol sweep mirroring
// support_fenwick_test, and a chi-squared goodness-of-fit check of the
// fired-pair distribution against the exact conditional law w_pair / W
// (through the shared statistical harness, support_stats/stat_test.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "protocols/double_exp_threshold.hpp"
#include "protocols/threshold.hpp"
#include "sim/simulator.hpp"
#include "support_stats/stat_test.hpp"

namespace ppsc {
namespace {

// A protocol whose 5 "live" states interact on every pair (each pair has a
// unique rule, so the fired transition identifies the selected pair) and
// whose sink z is silent with everything — padding with z agents drives the
// configuration into the sparse regime where fired-step pair selection runs.
Protocol all_pairs_probe() {
    ProtocolBuilder b;
    std::vector<StateId> s(5);
    for (int i = 0; i < 5; ++i) s[static_cast<std::size_t>(i)] = b.add_state("s" + std::to_string(i), 0);
    const StateId z = b.add_state("z", 1);
    b.set_input("x", s[0]);
    for (int i = 0; i < 5; ++i) {
        for (int j = i; j < 5; ++j) {
            b.add_transition(s[static_cast<std::size_t>(i)], s[static_cast<std::size_t>(j)], z, z);
        }
    }
    return std::move(b).build();
}

TEST(PairWeightFenwick, FiredPairDistributionPassesChiSquared) {
    // The pair fired by a non-silent encounter must follow the conditional
    // law P(pair) = w_pair / W with w = c(c−1) for self pairs and 2·c_p·c_q
    // otherwise, independently of the silent-skip machinery around it.
    const Protocol protocol = all_pairs_probe();
    const Simulator simulator(protocol);
    Config base(protocol.num_states());
    const std::vector<AgentCount> live = {6, 3, 9, 2, 5};
    for (std::size_t q = 0; q < live.size(); ++q) base.set(static_cast<StateId>(q), live[q]);
    base.set(*protocol.find_state("z"), 200);  // sparse: W/n(n−1) ≈ 0.012

    // w over the live pairs; every fired transition is (s_i, s_j) -> (z, z),
    // so the pre-pair of the fired transition identifies the selection.
    double total_weight = 0.0;
    std::map<std::pair<StateId, StateId>, double> weight;
    for (std::size_t i = 0; i < live.size(); ++i) {
        for (std::size_t j = i; j < live.size(); ++j) {
            const double w = i == j ? static_cast<double>(live[i]) * (static_cast<double>(live[i]) - 1)
                                    : 2.0 * static_cast<double>(live[i]) * static_cast<double>(live[j]);
            weight[{static_cast<StateId>(i), static_cast<StateId>(j)}] = w;
            total_weight += w;
        }
    }

    const int samples = 20'000;
    std::map<std::pair<StateId, StateId>, std::uint64_t> observed;
    Rng rng(stat::derive_seed(314159, "fired-pair-gof"));
    for (int trial = 0; trial < samples; ++trial) {
        Simulator::Trajectory trajectory(simulator, base);
        const auto fired = trajectory.fired_step(rng, std::uint64_t{1} << 40);
        ASSERT_TRUE(fired.has_value());
        const Transition& t = protocol.transitions()[static_cast<std::size_t>(*fired)];
        ++observed[{t.pre1, t.pre2}];
    }

    // 15 pair cells → 14 degrees of freedom at α = 10⁻³ (the harness pulls
    // the critical value, ≈ 36.1, from its pinned table).  The seed is
    // fixed, so the test is deterministic.
    std::vector<std::uint64_t> counts;
    std::vector<double> weights;
    for (const auto& [pair, w] : weight) {
        counts.push_back(observed[pair]);
        weights.push_back(w);
    }
    const stat::GofResult gof = stat::chi_squared_gof(counts, weights);
    EXPECT_EQ(gof.cells, 15u);
    EXPECT_EQ(gof.df, 14);
    EXPECT_NEAR(gof.critical, 36.123, 1e-3);
    EXPECT_TRUE(gof.pass) << "fired-pair distribution deviates from w/W: X² = " << gof.statistic
                          << " > " << gof.critical << " (p = " << gof.p_value << ")";
}

TEST(PairWeightFenwick, TrajectoriesMatchTheReferenceScanPerSeed) {
    // Fenwick selection and the cumulative scan resolve the same rank draw
    // over the same weights in the same order, so whole run_batch
    // trajectories must be identical per seed — not just in distribution.
    const Protocol protocol = protocols::double_exp_threshold_dense(3);  // eta = 255
    const Simulator fenwick(protocol, PairSelect::fenwick);
    const Simulator scan(protocol, PairSelect::scan);
    const auto state = [&protocol](const char* name) { return *protocol.find_state(name); };
    // Starts with several occupied states, so the step context's initial
    // pair weights include cross pairs between occupied partners.
    Config spread(protocol.num_states());
    spread.set(state("t0"), 40);
    spread.set(state("t1"), 25);
    spread.set(state("t3"), 12);
    spread.set(state("c7"), 3);
    spread.set(state("c4"), 2);
    spread.set(state("z"), 60);
    Config spread_wide = spread;
    spread_wide.set(state("t0"), 200);
    spread_wide.set(state("t5"), 7);
    spread_wide.set(state("T"), 1);
    // 2000 agents in t0: every encounter fires until t0 falls to about a
    // third of the population — hundreds of steps, each changing several
    // pair weights — so the dirty queue (#pairs/8 + 16 entries here)
    // overflows and the first sparse selection rebuilds the pair tree.
    const std::vector<std::pair<const char*, Config>> starts = {
        {"IC(300)", protocol.initial_config(300)},  // above threshold: rich dynamics
        {"spread", spread},
        {"spread, more states", spread_wide},
        {"IC(2000)", protocol.initial_config(2000)},
    };
    for (const auto& [label, start] : starts) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            Simulator::Trajectory a(fenwick, start);
            Simulator::Trajectory b(scan, start);
            Rng rng_a(seed), rng_b(seed);
            for (int chunk = 0; chunk < 40; ++chunk) {
                const std::uint64_t done_a = a.run_batch(rng_a, 500);
                const std::uint64_t done_b = b.run_batch(rng_b, 500);
                ASSERT_EQ(done_a, done_b) << label << " seed " << seed << " chunk " << chunk;
                ASSERT_TRUE(a.config() == b.config())
                    << label << " seed " << seed << " chunk " << chunk;
                if (done_a < 500) break;  // silent
            }
        }
    }
}

TEST(PairWeightFenwick, ExhaustiveSmallProtocolEquivalence) {
    // Mirrors support_fenwick_test's exhaustive style: enumerate *every*
    // configuration of up to 6 agents of the dense double-exponential
    // protocol at n = 2 (eta = 15, 9 states) and check that fired_step
    // under Fenwick selection and under the reference scan consume the
    // stream identically — same fired transition, same interaction count,
    // same successor configuration.
    const Protocol protocol = protocols::double_exp_threshold_dense(2);
    const std::size_t num_states = protocol.num_states();
    ASSERT_EQ(num_states, 9u);
    const Simulator fenwick(protocol, PairSelect::fenwick);
    const Simulator scan(protocol, PairSelect::scan);

    std::vector<AgentCount> counts(num_states, 0);
    std::uint64_t seed = 0;
    std::size_t checked = 0;
    const std::function<void(std::size_t, AgentCount)> enumerate = [&](std::size_t q,
                                                                       AgentCount left) {
        if (q + 1 == num_states) {
            counts[q] = left;
            const Config base = Config::from_counts(counts);
            if (base.size() >= 2) {
                Simulator::Trajectory a(fenwick, base), b(scan, base);
                Rng rng_a(++seed), rng_b(seed);
                std::uint64_t consumed_a = 0, consumed_b = 0;
                const auto fired_a = a.fired_step(rng_a, 64, &consumed_a);
                const auto fired_b = b.fired_step(rng_b, 64, &consumed_b);
                ASSERT_EQ(fired_a, fired_b) << base.to_string(protocol.state_names());
                ASSERT_EQ(consumed_a, consumed_b) << base.to_string(protocol.state_names());
                ASSERT_TRUE(a.config() == b.config()) << base.to_string(protocol.state_names());
                ++checked;
            }
            counts[q] = 0;
            return;
        }
        for (AgentCount c = 0; c <= left; ++c) {
            counts[q] = c;
            enumerate(q + 1, left - c);
        }
        counts[q] = 0;
    };
    for (AgentCount population = 2; population <= 6; ++population) enumerate(0, population);
    EXPECT_EQ(checked, 4'995u);  // Σ_{m=2..6} C(m+8, 8) — genuinely exhaustive
}

}  // namespace
}  // namespace ppsc
