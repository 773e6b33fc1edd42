// Property test for epoch-batched stepping: a randomized protocol
// generator sweeps epoch vs. per-step mode over > 10³ deterministically
// seeded full runs, asserting matching convergence-time means/variances
// (and whole distributions, via KS) and identical final-consensus
// verdicts on every single trial.
//
// Two instance families, both with *provable* per-instance verdicts so
// verdict identity is checkable exactly, not just statistically:
//   * random max-epidemic protocols — a random total order over ns states,
//     every cross pair fires (a, b) → (max, max), random outputs: from any
//     initial support the population converges (silently) to all agents in
//     the order-maximal support state, so the verdict is a deterministic
//     function of the instance;
//   * random collector_threshold(η) instances above and below threshold —
//     the verdict is the predicate x ≥ η itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "protocols/threshold.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "support_stats/stat_test.hpp"

namespace ppsc {
namespace {

struct Instance {
    Protocol protocol;
    Config initial;
    int expected_output;
    std::string label;
};

/// Random max-epidemic instance: states under a random total order, every
/// cross pair promotes both agents to the order-larger state.
///
/// Outputs are pinned so the order-maximal state is the *only* state with
/// the winning output: consensus then coincides with silence.  (With free
/// random outputs an instance can start in — or drift through — a
/// non-silent consensus, which the O(1) stability probe may prove early;
/// per-step mode checks that probe after every firing but epoch mode only
/// at epoch boundaries, so detection granularity would bias the
/// convergence-time comparison.  At silence the epoch sizer has already
/// degraded to per-step fallback, so granularity is identical there.)
Instance random_epidemic(std::uint64_t seed, int index) {
    Rng rng(seed);
    const int ns = 4 + static_cast<int>(rng.below(21));  // 4..24 states
    std::vector<int> order(static_cast<std::size_t>(ns));
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    const int winning_output = static_cast<int>(rng.below(2));
    ProtocolBuilder b;
    std::vector<StateId> states;
    std::vector<int> outputs;
    for (int q = 0; q < ns; ++q) {
        outputs.push_back(order[static_cast<std::size_t>(q)] == ns - 1 ? winning_output
                                                                       : 1 - winning_output);
        states.push_back(b.add_state("q" + std::to_string(q), outputs.back()));
    }
    for (int a = 0; a < ns; ++a) {
        for (int bq = a + 1; bq < ns; ++bq) {
            const int winner = order[static_cast<std::size_t>(a)] >
                                       order[static_cast<std::size_t>(bq)]
                                   ? a
                                   : bq;
            b.add_transition(states[static_cast<std::size_t>(a)],
                             states[static_cast<std::size_t>(bq)],
                             states[static_cast<std::size_t>(winner)],
                             states[static_cast<std::size_t>(winner)]);
        }
    }
    b.set_input("x", states[0]);
    Protocol protocol = std::move(b).build();

    // Random initial support of ≥ 2 states over a 4096-agent population.
    // Every support state gets ≥ 128 agents: a near-degenerate split such as
    // {1, 4095} converges in O(1) interactions, before an epoch can engage,
    // and would make the engagement assertion below vacuous.
    const AgentCount population = 4096;
    const AgentCount floor = 128;
    const int support = 2 + static_cast<int>(rng.below(static_cast<std::uint64_t>(ns - 1)));
    std::vector<int> pick(static_cast<std::size_t>(ns));
    std::iota(pick.begin(), pick.end(), 0);
    for (std::size_t i = pick.size(); i > 1; --i) std::swap(pick[i - 1], pick[rng.below(i)]);
    // The order-maximal state must be in the support: without it the whole
    // population shares the losing output from the start (instant stable
    // consensus, nothing for the epoch path to do).
    for (int s = 0; s < ns; ++s) {
        if (order[static_cast<std::size_t>(pick[static_cast<std::size_t>(s)])] == ns - 1) {
            if (s >= support) std::swap(pick[0], pick[static_cast<std::size_t>(s)]);
            break;
        }
    }
    Config initial(protocol.num_states());
    AgentCount left = population - floor * static_cast<AgentCount>(support);
    int max_rank = -1;
    int max_state = 0;
    for (int s = 0; s < support; ++s) {
        const int q = pick[static_cast<std::size_t>(s)];  // distinct support states
        const AgentCount extra =
            s + 1 == support ? left : static_cast<AgentCount>(rng.below(left + 1));
        left -= extra;
        initial.add(states[static_cast<std::size_t>(q)], floor + extra);
        if (order[static_cast<std::size_t>(q)] > max_rank) {
            max_rank = order[static_cast<std::size_t>(q)];
            max_state = q;
        }
    }
    return {std::move(protocol), std::move(initial), outputs[static_cast<std::size_t>(max_state)],
            "epidemic-" + std::to_string(index)};
}

/// Random collector_threshold(η) instance, above or below threshold.
Instance random_collector(std::uint64_t seed, int index, bool above) {
    Rng rng(seed);
    const AgentCount eta = 500 + static_cast<AgentCount>(rng.below(4500));
    Protocol protocol = protocols::collector_threshold(eta);
    const AgentCount x = above ? eta + static_cast<AgentCount>(rng.below(eta)) : eta - 1;
    Config initial = protocol.initial_config(x);
    return {std::move(protocol), std::move(initial), above ? 1 : 0,
            "collector-" + std::to_string(index)};
}

TEST(EpochProperty, RandomProtocolsMatchMomentsAndVerdictsAcrossAThousandTrials) {
    std::vector<Instance> instances;
    for (int i = 0; i < 10; ++i)
        instances.push_back(random_epidemic(stat::derive_seed(3000, "epidemic-" + std::to_string(i)), i));
    for (int i = 0; i < 3; ++i)
        instances.push_back(
            random_collector(stat::derive_seed(3001, "collector-" + std::to_string(i)), i, i != 1));

    const int runs_per_mode = 45;
    int total_trials = 0;
    const int stat_tests = static_cast<int>(instances.size()) * 3;
    const double alpha = stat::bonferroni(1e-3, stat_tests);

    for (const Instance& instance : instances) {
        const Simulator sim(instance.protocol, PairSelect::fenwick);
        sim.reset_epoch_stats();
        std::vector<double> times[2];
        for (int mode = 0; mode < 2; ++mode) {
            SimulationOptions options;
            options.max_interactions = std::uint64_t{1} << 32;
            options.step_mode = mode == 0 ? StepMode::per_step : StepMode::epoch;
            options.epoch.min_firings = 8;
            Rng rng(stat::derive_seed(3002, instance.label + (mode == 0 ? "-ref" : "-epoch")));
            for (int r = 0; r < runs_per_mode; ++r) {
                const SimulationResult result = sim.run(instance.initial, rng, options);
                ASSERT_TRUE(result.converged) << instance.label << " mode " << mode;
                ASSERT_TRUE(result.output.has_value()) << instance.label;
                // Verdict identity, trial by trial — not just on average.
                ASSERT_EQ(*result.output, instance.expected_output)
                    << instance.label << " mode " << mode << " run " << r;
                times[mode].push_back(static_cast<double>(result.interactions));
                ++total_trials;
            }
        }
        // The comparison is vacuous unless the epoch path actually served
        // the epoch-mode runs.
        ASSERT_GT(sim.epoch_stats().epoch_fired, 0u) << instance.label;

        const auto ref = stat::sample_moments(times[0]);
        const auto epoch = stat::sample_moments(times[1]);
        const auto mean = stat::mean_equivalence_test(ref, epoch, alpha);
        EXPECT_TRUE(mean.pass) << instance.label << ": mean z = " << mean.statistic << " (ref "
                               << ref.mean << ", epoch " << epoch.mean << ")";
        const auto variance = stat::variance_equivalence_test(ref, epoch, alpha);
        EXPECT_TRUE(variance.pass) << instance.label << ": variance z = " << variance.statistic;
        const auto ks = stat::ks_two_sample(times[0], times[1], alpha);
        EXPECT_TRUE(ks.pass) << instance.label << ": KS D = " << ks.statistic << " > "
                             << ks.critical;
    }
    EXPECT_GE(total_trials, 1000);  // the ≥ 10³ seeded-trials requirement
}

}  // namespace
}  // namespace ppsc
