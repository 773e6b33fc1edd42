// Tests for the random-scheduler simulator: convergence on verified
// protocols, agreement with the exhaustive verifier, determinism, and the
// soundness of both stability-detection mechanisms.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "protocols/modulo.hpp"
#include "protocols/threshold.hpp"
#include "sim/experiment.hpp"
#include "sim/stats.hpp"
#include "verify/verifier.hpp"

namespace ppsc {
namespace {

TEST(Simulator, OutputTrapsForCollectorThreshold) {
    const Protocol p = protocols::collector_threshold(5);
    const Simulator sim(p);
    // W_1 must be exactly {T}: it is the only 1-output state and T,T pairs
    // are silent.
    const auto& w1 = sim.output_trap(1);
    for (std::size_t q = 0; q < p.num_states(); ++q) {
        EXPECT_EQ(w1[q], p.state_name(static_cast<StateId>(q)) == "T");
    }
}

TEST(Simulator, StepConservesAgents) {
    const Protocol p = protocols::collector_threshold(6);
    const Simulator sim(p);
    Rng rng(42);
    Config config = p.initial_config(9);
    for (int i = 0; i < 200; ++i) {
        sim.step(config, rng);
        EXPECT_EQ(config.size(), 9);
    }
}

TEST(Simulator, ConvergesToAcceptAboveThreshold) {
    const Protocol p = protocols::collector_threshold(6);
    const Simulator sim(p);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        const SimulationResult result = sim.run_input(10, rng);
        EXPECT_TRUE(result.converged) << "seed " << seed;
        EXPECT_EQ(result.output, 1) << "seed " << seed;
    }
}

TEST(Simulator, ConvergesToRejectBelowThreshold) {
    const Protocol p = protocols::collector_threshold(6);
    const Simulator sim(p);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        const SimulationResult result = sim.run_input(5, rng);
        EXPECT_TRUE(result.converged) << "seed " << seed;
        EXPECT_EQ(result.output, 0) << "seed " << seed;
    }
}

TEST(Simulator, DeterministicUnderSameSeed) {
    const Protocol p = protocols::unary_threshold(4);
    const Simulator sim(p);
    Rng rng1(99), rng2(99);
    const SimulationResult r1 = sim.run_input(7, rng1);
    const SimulationResult r2 = sim.run_input(7, rng2);
    EXPECT_EQ(r1.interactions, r2.interactions);
    EXPECT_EQ(r1.final_config, r2.final_config);
}

TEST(Simulator, SilentDetectionOnRejectingRun) {
    // unary_threshold rejection ends in a silent non-trap configuration.
    const Protocol p = protocols::unary_threshold(5);
    const Simulator sim(p);
    Rng rng(5);
    const SimulationResult result = sim.run_input(3, rng);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.output, 0);
    EXPECT_TRUE(sim.is_silent(result.final_config));
}

TEST(Simulator, IsProvablyStableSoundness) {
    // Every configuration the simulator declares stable must have a
    // consensus output that matches the verifier's verdict on a fair run.
    const Protocol p = protocols::collector_threshold(3);
    const Simulator sim(p);
    const Verifier verifier(p);
    for (AgentCount input = 2; input <= 7; ++input) {
        Rng rng(static_cast<std::uint64_t>(input));
        const SimulationResult result = sim.run_input(input, rng);
        ASSERT_TRUE(result.converged);
        const InputVerdict verdict = verifier.verify_input(input);
        ASSERT_TRUE(verdict.well_specified);
        EXPECT_EQ(result.output, verdict.computed) << "input " << input;
    }
}

TEST(Simulator, ProbesRejectConfigurationsOfAnotherSize) {
    // A configuration over another state count would index past the trap
    // bitmaps and the protocol's tables; both probes refuse it in every
    // build mode.
    const Protocol p = protocols::collector_threshold(5);
    const Simulator sim(p);
    Config shorter(p.num_states() - 1);
    shorter.set(0, 3);
    Config wider(p.num_states() + 4);
    wider.set(static_cast<StateId>(p.num_states() + 3), 3);
    for (const Config* config : {&shorter, &wider}) {
        EXPECT_THROW(sim.is_silent(*config), std::logic_error);
        EXPECT_THROW(sim.is_provably_stable(*config), std::logic_error);
    }
}

TEST(Simulator, KeepsATemporaryProtocolAlive) {
    // The simulator shares the protocol's tables, so one built from a
    // temporary owns them past the full expression (the ASan leg flags a
    // dangling table) and runs exactly like one built from a named copy.
    const Simulator from_temporary(protocols::collector_threshold(6));
    const Protocol p = protocols::collector_threshold(6);
    const Simulator named(p);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng_a(seed), rng_b(seed);
        const SimulationResult a = from_temporary.run_input(10, rng_a);
        const SimulationResult b = named.run_input(10, rng_b);
        EXPECT_EQ(a.final_config, b.final_config) << "seed " << seed;
        EXPECT_EQ(a.interactions, b.interactions) << "seed " << seed;
        EXPECT_EQ(a.output, b.output) << "seed " << seed;
    }
}

TEST(Simulator, HonoursInteractionBudget) {
    // The oscillator never stabilises; the budget must stop the run.
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 1);
    const StateId c = b.add_state("B", 0);
    b.set_input("x", a);
    b.add_transition(a, a, c, c);
    b.add_transition(c, c, a, a);
    const Protocol p = std::move(b).build();

    const Simulator sim(p);
    SimulationOptions options;
    options.max_interactions = 500;
    Rng rng(3);
    const SimulationResult result = sim.run(p.initial_config(2), rng, options);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.interactions, 500u);
}

TEST(Simulator, ParallelTimeIsInteractionsOverPopulation) {
    const Protocol p = protocols::unary_threshold(2);
    const Simulator sim(p);
    Rng rng(1);
    const SimulationResult result = sim.run_input(8, rng);
    EXPECT_DOUBLE_EQ(result.parallel_time, static_cast<double>(result.interactions) / 8.0);
}

TEST(Simulator, RejectsTooSmallPopulations) {
    const Protocol p = protocols::unary_threshold(2);
    const Simulator sim(p);
    Rng rng(1);
    EXPECT_THROW(sim.run(Config::single(p.num_states(), 0, 1), rng), std::invalid_argument);
}

TEST(ConvergenceSweep, ProducesSaneRows) {
    const Protocol p = protocols::collector_threshold(4);
    ConvergenceSweepOptions options;
    options.runs_per_size = 5;
    const auto rows = convergence_sweep(
        p, {4, 8, 16}, [](AgentCount i) { return i >= 4 ? 1 : 0; }, options);
    ASSERT_EQ(rows.size(), 3u);
    for (const auto& row : rows) {
        EXPECT_EQ(row.runs, 5u);
        EXPECT_EQ(row.converged_runs, 5u) << "population " << row.population;
        EXPECT_DOUBLE_EQ(row.correct_fraction, 1.0) << "population " << row.population;
        EXPECT_GT(row.mean_parallel_time, 0.0);
    }
}

TEST(RunningStats, WelfordMatchesDirectComputation) {
    RunningStats stats;
    const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (const double v : values) stats.add(v);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_NEAR(stats.stddev(), 2.13809, 1e-4);  // sample stddev
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Samples, QuantilesNearestRank) {
    Samples samples;
    for (int i = 1; i <= 99; ++i) samples.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(samples.median(), 50.0);
    EXPECT_DOUBLE_EQ(samples.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(samples.quantile(1.0), 99.0);
}

}  // namespace
}  // namespace ppsc
