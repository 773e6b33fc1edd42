// Statistical equivalence of epoch-batched stepping (StepMode::epoch) and
// the exact per-step reference, through the shared harness
// (stat_test.hpp):
//
//   * chi-squared goodness-of-fit of the per-pair firing counts of single
//     epochs against the exact multinomial law Multinomial(k, w/W) — the
//     probe protocol gives every pair a unique sink, so the sink counts
//     read the multinomial draw back exactly;
//   * exhaustive small-configuration moment checks: every configuration of
//     2..7 agents over the probe's live states, first-epoch firing counts
//     vs. the multinomial mean and variance;
//   * two-sample tests (mean, variance, Kolmogorov-Smirnov) on full
//     convergence-time distributions, epoch vs. per-step, plus identical
//     consensus verdicts;
//   * structural consistency after epochs: the incremental weights, trap
//     counters, and silence flags must equal a from-scratch rebuild;
//   * fixed-seed checks of the samplers (binomial moments, multinomial
//     GOF), epoch vs. per-step means on double_exp_threshold(2), and the
//     fired accounting of epoch-mode E11 throughput rows.
//
// Everything is deterministically seeded via stat::derive_seed, so the
// suite is flake-free at its fixed significance levels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "protocols/double_exp_threshold.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "support/fenwick.hpp"
#include "stat_test.hpp"

namespace ppsc {
namespace {

/// Live states interacting on every pair, each pair firing into its own
/// private sink — after an epoch, sink counts identify the per-pair firing
/// counts exactly (2 sink agents per firing).  Sinks are silent with
/// everything, so only the live-live weights ever enter the multinomial.
struct PairProbe {
    Protocol protocol;
    std::vector<StateId> live;
    std::vector<std::vector<StateId>> sink;  // sink[i][j], i ≤ j
};

PairProbe make_pair_probe(int num_live) {
    ProtocolBuilder b;
    std::vector<StateId> live;
    for (int i = 0; i < num_live; ++i) live.push_back(b.add_state("s" + std::to_string(i), 0));
    std::vector<std::vector<StateId>> sink(static_cast<std::size_t>(num_live));
    for (int i = 0; i < num_live; ++i) {
        for (int j = i; j < num_live; ++j) {
            const StateId z =
                b.add_state("z" + std::to_string(i) + "_" + std::to_string(j), 1);
            sink[static_cast<std::size_t>(i)].push_back(z);
            b.add_transition(live[static_cast<std::size_t>(i)],
                             live[static_cast<std::size_t>(j)], z, z);
        }
    }
    b.set_input("x", live[0]);
    return {std::move(b).build(), std::move(live), std::move(sink)};
}

/// Hook that stops the run at its first fired boundary — in epoch mode,
/// right after the FIRST epoch, whose multinomial was drawn over the exact
/// weights of the starting configuration.
CheckpointHook stop_after_first_boundary() {
    return {1, [](const CheckpointTick&) { return false; }};
}

/// Exact ordered pair weight of the probe's live pair (i, j) at `config`.
double probe_weight(const Config& config, StateId si, StateId sj) {
    const auto ci = static_cast<double>(config[si]);
    const auto cj = static_cast<double>(config[sj]);
    return si == sj ? ci * (ci - 1.0) : 2.0 * ci * cj;
}

TEST(EpochEquivalence, SingleEpochFiringCountsPassChiSquaredAgainstTheMultinomial) {
    // Accumulated over T independent first epochs from the same base
    // configuration, the per-pair counts are Multinomial(T·k, w/W) exactly
    // — conditional-binomial descent is distribution-identical to k
    // sequential weight-proportional draws.
    const PairProbe probe = make_pair_probe(5);
    const Simulator sim(probe.protocol, PairSelect::fenwick);
    Config base(probe.protocol.num_states());
    const std::vector<AgentCount> counts = {60, 30, 90, 20, 50};
    for (std::size_t q = 0; q < counts.size(); ++q) base.set(probe.live[q], counts[q]);

    EpochOptions epoch;
    epoch.min_firings = 2;
    epoch.drift = 0.25;
    const CheckpointHook stop = stop_after_first_boundary();
    sim.reset_epoch_stats();

    const int trials = 4'000;
    std::vector<std::uint64_t> observed;
    std::vector<double> weights;
    std::vector<std::size_t> cell_of;  // (i, j) → cell index, probe order
    for (std::size_t i = 0; i < probe.live.size(); ++i) {
        for (std::size_t j = i; j < probe.live.size(); ++j) {
            cell_of.push_back(weights.size());
            weights.push_back(probe_weight(base, probe.live[i], probe.live[j]));
            observed.push_back(0);
        }
    }

    Rng rng(stat::derive_seed(2025, "single-epoch-gof"));
    std::uint64_t k_first = 0;
    for (int t = 0; t < trials; ++t) {
        Config config = base;
        std::uint64_t fired = 0;
        sim.run_batch(config, rng, std::uint64_t{1} << 40, false, &stop, &fired,
                      StepMode::epoch, epoch);
        // The epoch length is a deterministic function of the (identical)
        // starting configuration — every trial draws the same k.
        if (t == 0) {
            k_first = fired;
            ASSERT_GE(k_first, epoch.min_firings);
        }
        ASSERT_EQ(fired, k_first) << "trial " << t;
        std::size_t cell = 0;
        for (std::size_t i = 0; i < probe.live.size(); ++i) {
            for (std::size_t j = i; j < probe.live.size(); ++j) {
                const AgentCount sunk = config[probe.sink[i][j - i]];
                ASSERT_EQ(sunk % 2, 0);
                observed[cell_of[cell]] += static_cast<std::uint64_t>(sunk / 2);
                ++cell;
            }
        }
    }
    const EpochStats stats = sim.epoch_stats();
    EXPECT_EQ(stats.epochs, static_cast<std::uint64_t>(trials));
    EXPECT_EQ(stats.fallback_fired, 0u);
    EXPECT_EQ(stats.rejected_draws, 0u);

    std::uint64_t total = 0;
    for (const std::uint64_t c : observed) total += c;
    EXPECT_EQ(total, k_first * trials);

    const stat::GofResult gof = stat::chi_squared_gof(observed, weights);
    EXPECT_TRUE(gof.pass) << "X² = " << gof.statistic << " > " << gof.critical
                          << " (df " << gof.df << ", p = " << gof.p_value << ")";
}

TEST(EpochEquivalence, ExhaustiveSmallConfigurationMomentChecks) {
    // Every configuration of 2..7 agents over four live states: the first
    // epoch's per-pair counts, accumulated over repeated draws, must match
    // the multinomial mean (chi-squared over the summed counts — an exact
    // multinomial test after pooling) — and for the heaviest pair also the
    // binomial variance k·p·(1−p).  Epoch lengths are clamped to
    // ⌊min count / 2⌋, which makes every draw feasible (2k ≤ count for all
    // states), so k is deterministic per configuration and the law exact.
    const PairProbe probe = make_pair_probe(4);
    const Simulator sim(probe.protocol, PairSelect::fenwick);
    sim.reset_epoch_stats();
    const CheckpointHook stop = stop_after_first_boundary();

    const int trials = 300;
    int tested_configs = 0;
    std::vector<AgentCount> live_counts(4, 0);
    std::vector<stat::GofResult> failures;

    const auto test_config = [&](const std::vector<AgentCount>& counts) {
        Config base(probe.protocol.num_states());
        AgentCount min_live = 0;
        for (std::size_t q = 0; q < counts.size(); ++q) {
            base.set(probe.live[q], counts[q]);
            if (counts[q] > 0) min_live = min_live == 0 ? counts[q] : std::min(min_live, counts[q]);
        }
        // Weights of the active pairs; need ≥ 2 for a meaningful multinomial.
        std::vector<double> weights;
        for (std::size_t i = 0; i < probe.live.size(); ++i) {
            for (std::size_t j = i; j < probe.live.size(); ++j) {
                const double w = probe_weight(base, probe.live[i], probe.live[j]);
                if (w > 0.0) weights.push_back(w);
            }
        }
        if (weights.size() < 2) return;

        EpochOptions epoch;
        epoch.min_firings = 1;
        epoch.drift = 1.0;
        epoch.max_firings = static_cast<std::uint64_t>(std::max<AgentCount>(min_live / 2, 1));

        std::vector<std::uint64_t> sums;
        std::vector<double> active_weights;
        std::vector<double> top_counts;  // per-trial counts of the heaviest pair
        std::uint64_t k_epoch = 0;
        Rng rng(stat::derive_seed(2026, "exhaustive-moments"));
        for (int t = 0; t < trials; ++t) {
            Config config = base;
            std::uint64_t fired = 0;
            sim.run_batch(config, rng, std::uint64_t{1} << 40, false, &stop, &fired,
                          StepMode::epoch, epoch);
            if (t == 0) {
                k_epoch = fired;
                ASSERT_GE(k_epoch, 1u);
                // Collect the active cells once.
                std::size_t heaviest = 0;
                double heaviest_w = 0.0;
                for (std::size_t i = 0; i < probe.live.size(); ++i) {
                    for (std::size_t j = i; j < probe.live.size(); ++j) {
                        const double w = probe_weight(base, probe.live[i], probe.live[j]);
                        if (w <= 0.0) continue;
                        if (w > heaviest_w) {
                            heaviest_w = w;
                            heaviest = active_weights.size();
                        }
                        active_weights.push_back(w);
                        sums.push_back(0);
                    }
                }
                top_counts.reserve(static_cast<std::size_t>(trials));
                (void)heaviest;
            }
            ASSERT_EQ(fired, k_epoch);
            std::size_t cell = 0;
            double top_w = 0.0;
            double top_c = 0.0;
            for (std::size_t i = 0; i < probe.live.size(); ++i) {
                for (std::size_t j = i; j < probe.live.size(); ++j) {
                    const double w = probe_weight(base, probe.live[i], probe.live[j]);
                    if (w <= 0.0) continue;
                    const auto c = static_cast<std::uint64_t>(config[probe.sink[i][j - i]] / 2);
                    sums[cell] += c;
                    if (w > top_w) {
                        top_w = w;
                        top_c = static_cast<double>(c);
                    }
                    ++cell;
                }
            }
            top_counts.push_back(top_c);
        }

        // First moment: summed counts are Multinomial(trials·k, w/W).
        const stat::GofResult gof =
            stat::chi_squared_gof(sums, active_weights, stat::bonferroni(0.01, 400));
        if (!gof.pass) failures.push_back(gof);

        // Second moment, heaviest pair: per-trial counts are
        // Binomial(k, p_top); compare the sample variance via the harness's
        // large-sample variance test against an exact-law sample.
        double total_w = 0.0;
        double max_w = 0.0;
        for (const double w : active_weights) {
            total_w += w;
            max_w = std::max(max_w, w);
        }
        const double p_top = max_w / total_w;
        if (k_epoch >= 2 && p_top < 0.99) {
            const auto m = stat::sample_moments(top_counts);
            const double expect_var = static_cast<double>(k_epoch) * p_top * (1.0 - p_top);
            // z-test of the sample variance against the known value, SE
            // estimated from the sample's own fourth moment.
            const double se =
                std::sqrt(std::max(m.m4 - m.variance * m.variance, 1e-12) /
                          static_cast<double>(m.n));
            const double z = std::fabs(m.variance - expect_var) / se;
            EXPECT_LE(z, stat::normal_quantile(1.0 - 0.5 * stat::bonferroni(0.01, 400)))
                << "variance of heaviest pair off: " << m.variance << " vs " << expect_var;
        }
        ++tested_configs;
    };

    // Exhaustive enumeration: all compositions of 2..7 agents into the four
    // live states (sinks start empty).
    for (AgentCount pop = 2; pop <= 7; ++pop) {
        for (AgentCount a = 0; a <= pop; ++a) {
            for (AgentCount b = 0; a + b <= pop; ++b) {
                for (AgentCount c = 0; a + b + c <= pop; ++c) {
                    live_counts = {a, b, c, pop - a - b - c};
                    test_config(live_counts);
                }
            }
        }
    }
    EXPECT_EQ(tested_configs, 295);  // genuinely exhaustive, minus < 2-pair configs
    for (const auto& gof : failures) {
        ADD_FAILURE() << "multinomial GOF failed: X² = " << gof.statistic << " > "
                      << gof.critical << " (df " << gof.df << ")";
    }
    EXPECT_EQ(sim.epoch_stats().rejected_draws, 0u)
        << "the ⌊min/2⌋ clamp should make every draw feasible";
}

TEST(EpochEquivalence, ConvergenceTimeDistributionsMatchThePerStepReference) {
    // Full runs to consensus on the E11 double-exponential workload: the
    // interaction counts at convergence must be indistinguishable between
    // modes (mean, variance, and KS at α = 10⁻³/3), and the verdicts
    // identical — every run of both modes must stabilise to output 1.
    const Protocol protocol = protocols::double_exp_threshold(2);
    const Simulator sim(protocol, PairSelect::fenwick);
    const AgentCount population = 4096;

    const int runs = 250;
    const double alpha = stat::bonferroni(1e-3, 3);
    std::vector<double> times[2];
    sim.reset_epoch_stats();
    for (int mode = 0; mode < 2; ++mode) {
        SimulationOptions options;
        options.max_interactions = std::uint64_t{1} << 32;
        options.step_mode = mode == 0 ? StepMode::per_step : StepMode::epoch;
        options.epoch.min_firings = 8;
        // Both modes consume the same seeds — only through differently
        // shaped draws.
        Rng rng(stat::derive_seed(2027, mode == 0 ? "convergence-ref" : "convergence-epoch"));
        for (int r = 0; r < runs; ++r) {
            const SimulationResult result = sim.run_input(population, rng, options);
            ASSERT_TRUE(result.converged) << "mode " << mode << " run " << r;
            ASSERT_TRUE(result.output.has_value());
            ASSERT_EQ(*result.output, 1) << "mode " << mode << " run " << r;
            ASSERT_GT(result.fired, 0u);
            ASSERT_LE(result.fired, result.interactions);
            times[mode].push_back(static_cast<double>(result.interactions));
        }
    }
    // The epoch path must have actually served the bulk of the epoch-mode
    // firings — otherwise this test compares per-step with itself.
    const EpochStats stats = sim.epoch_stats();
    ASSERT_GT(stats.epochs, 0u);
    ASSERT_GT(stats.epoch_fired, stats.fallback_fired);

    const auto ref = stat::sample_moments(times[0]);
    const auto epoch = stat::sample_moments(times[1]);
    const auto mean = stat::mean_equivalence_test(ref, epoch, alpha);
    EXPECT_TRUE(mean.pass) << "means differ: z = " << mean.statistic << " (ref " << ref.mean
                           << ", epoch " << epoch.mean << ")";
    const auto variance = stat::variance_equivalence_test(ref, epoch, alpha);
    EXPECT_TRUE(variance.pass) << "variances differ: z = " << variance.statistic << " (ref "
                               << ref.variance << ", epoch " << epoch.variance << ")";
    const auto ks = stat::ks_two_sample(times[0], times[1], alpha);
    EXPECT_TRUE(ks.pass) << "KS: D = " << ks.statistic << " > " << ks.critical;
}

TEST(EpochEquivalence, StructuralConsistencyAfterEpochs) {
    // After a long epoch-mode run, the incrementally maintained state (W,
    // trap counters, agent tree) must agree with a from-scratch rebuild on
    // a fresh simulator — population conserved, silence and stability
    // verdicts identical.
    const Protocol protocol = protocols::double_exp_threshold(2);
    const Simulator sim(protocol, PairSelect::fenwick);
    const AgentCount population = 50'000;
    Simulator::Trajectory trajectory(sim, protocol.initial_config(population));
    Rng rng(stat::derive_seed(2028, "structural"));
    EpochOptions epoch;
    epoch.min_firings = 8;
    const std::uint64_t done = trajectory.run_batch(rng, std::uint64_t{1} << 28, true, nullptr,
                                                    StepMode::epoch, epoch);
    ASSERT_GT(done, 0u);
    ASSERT_GT(sim.epoch_stats().epochs, 0u);
    EXPECT_EQ(trajectory.config().size(), population);  // agents are conserved exactly

    // The trajectory's probes (O(1) counters) vs. a fresh simulator's
    // counts-based rescan of the same final configuration.
    const Simulator fresh(protocol, PairSelect::fenwick);
    EXPECT_EQ(trajectory.silent(), fresh.is_silent(trajectory.config()));
    EXPECT_EQ(trajectory.provably_stable(), fresh.is_provably_stable(trajectory.config()));

    // And the trajectory must still be continuable on the per-step path —
    // mixed-mode stepping shares one exact weight structure.
    trajectory.run_batch(rng, 10'000);
    EXPECT_EQ(trajectory.config().size(), population);
}

// Fixed-seed checks of the samplers and of the epoch path end to end, cheap
// enough for every build leg, sanitizers included.

TEST(EpochEquivalence, SamplersMatchExactMomentsAndTheMultinomialSplitPassesGof) {
    // Binomial via both algorithms (inversion and BTRS) and the Fenwick
    // multinomial decomposition built on them: sample means within 5
    // standard errors of the exact law at fixed seeds.
    Rng rng(stat::derive_seed(0xE90C, "samplers"));
    const int reps = 4'000;
    double small_sum = 0.0, large_sum = 0.0;
    for (int r = 0; r < reps; ++r) {
        small_sum += static_cast<double>(rng.binomial(40, 0.2));        // inversion
        large_sum += static_cast<double>(rng.binomial(100'000, 0.37));  // BTRS
    }
    const auto within = [&](double sum, double n, double p) {
        const double se = std::sqrt(n * p * (1 - p) / reps);
        return std::abs(sum / reps - n * p) < 5.0 * se;
    };
    EXPECT_TRUE(within(small_sum, 40, 0.2)) << "binomial inversion mean within 5 SE";
    EXPECT_TRUE(within(large_sum, 100'000, 0.37)) << "binomial BTRS mean within 5 SE";

    const std::vector<std::int64_t> weights = {60, 30, 90, 20, 50};
    const FenwickTree tree{std::span<const std::int64_t>(weights)};
    std::vector<std::uint64_t> counts(5, 0);
    tree.multinomial(200'000, rng,
                     [&](std::size_t index, std::uint64_t c) { counts[index] += c; });
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) total += c;
    EXPECT_EQ(total, 200'000u) << "multinomial split conserves the draw count";
    const std::vector<double> expected(weights.begin(), weights.end());
    const stat::GofResult gof = stat::chi_squared_gof(counts, expected);
    EXPECT_TRUE(gof.pass) << "multinomial split passes chi-squared GOF";
}

TEST(EpochEquivalence, EpochAndPerStepAgreeOnDoubleExpThreshold2) {
    const Protocol p = protocols::double_exp_threshold(2);
    const Simulator sim(p, PairSelect::fenwick);
    sim.reset_epoch_stats();
    const int runs = 60;
    double mean[2] = {0.0, 0.0};
    bool converged_ok = true, verdict_ok = true;
    for (int mode = 0; mode < 2; ++mode) {
        Rng rng(stat::derive_seed(0xE90C, mode == 0 ? "ref" : "epoch"));
        for (int r = 0; r < runs; ++r) {
            SimulationOptions options;
            options.max_interactions = std::uint64_t{1} << 32;
            options.step_mode = mode == 0 ? StepMode::per_step : StepMode::epoch;
            options.epoch.min_firings = 8;
            const SimulationResult result = sim.run(p.initial_config(4096), rng, options);
            converged_ok = converged_ok && result.converged;
            verdict_ok = verdict_ok && result.output == 1;  // 4096 >= eta = 16
            mean[mode] += static_cast<double>(result.interactions) / runs;
        }
    }
    EXPECT_TRUE(converged_ok) << "all runs converge in both modes";
    EXPECT_TRUE(verdict_ok) << "all runs reach the correct consensus";
    // Distribution-level agreement: the two sample means differ by a few
    // percent at these sample sizes; 15% catches a wrong epoch law
    // without flaking (cf. BatchedRun tests, same tolerance rationale).
    EXPECT_LT(std::abs(mean[1] / mean[0] - 1.0), 0.15)
        << "mean interactions to convergence within 15% of reference";
    const EpochStats stats = sim.epoch_stats();
    EXPECT_TRUE(stats.epochs > 0 && stats.epoch_fired > stats.fallback_fired)
        << "epoch path served the bulk of the fired interactions";
}

TEST(EpochEquivalence, E11SweepRowsUnderEpochSteppingAccountFiredSteps) {
    E11Options tiny;
    tiny.tower_ns = {4};
    tiny.populations = {1 << 16};
    tiny.interactions_per_row = 1 << 20;
    tiny.step_mode = StepMode::epoch;
    const auto rows = e11_throughput_sweep(tiny);
    EXPECT_FALSE(rows.empty());
    for (const ThroughputRow& row : rows) {
        EXPECT_EQ(row.interactions, tiny.interactions_per_row);
        EXPECT_GT(row.fired, 0u);
        EXPECT_LE(row.fired, row.interactions);
        EXPECT_GT(row.fired_per_sec, 0.0);
    }
}

}  // namespace
}  // namespace ppsc
