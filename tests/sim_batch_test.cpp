// Tests for the high-throughput simulation engine: batched stepping
// (run_batch), the rejection-free silent-encounter skipping inside run(),
// incremental silence detection, and the parallel convergence sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "protocols/double_exp_threshold.hpp"
#include "protocols/majority.hpp"
#include "protocols/threshold.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"

namespace ppsc {
namespace {

TEST(RunBatch, ConservesAgentsAndHonoursBudget) {
    const Protocol p = protocols::collector_threshold(20);
    const Simulator sim(p);
    Config config = p.initial_config(64);
    Rng rng(17);
    const std::uint64_t executed = sim.run_batch(config, rng, 10'000);
    EXPECT_LE(executed, 10'000u);
    EXPECT_EQ(config.size(), 64);
}

TEST(RunBatch, StopsEarlyExactlyWhenSilent) {
    // run_batch returns less than its budget only when the configuration is
    // silent; drive a run to completion and check both directions.
    const Protocol p = protocols::collector_threshold(6);
    const Simulator sim(p);
    Config config = p.initial_config(10);
    Rng rng(23);
    std::uint64_t total = 0;
    for (int round = 0; round < 1000; ++round) {
        const std::uint64_t executed = sim.run_batch(config, rng, 5'000);
        total += executed;
        if (executed < 5'000) break;
    }
    EXPECT_TRUE(sim.is_silent(config)) << "after " << total << " interactions";
    // Once silent, further batches execute nothing.
    EXPECT_EQ(sim.run_batch(config, rng, 1'000), 0u);
    EXPECT_EQ(config.size(), 10);
}

TEST(RunBatch, AgreesWithSingleSteppingUnderSameSeed) {
    // run_batch in the dense regime and step() consume the scheduler chain
    // identically; on a protocol where no encounter is ever skipped
    // (majority keeps most pairs active early on) the first interactions of
    // a batch match per-step execution with the same seed.  Here we only
    // require the invariants: agent conservation and monotone interaction
    // counting.
    const Protocol p = protocols::majority();
    const Simulator sim(p);
    const AgentCount inputs[] = {40, 24};
    Config batch_config = p.initial_config(inputs);
    Simulator::Trajectory stepper(sim, p.initial_config(inputs));
    Rng batch_rng(99), step_rng(99);
    const std::uint64_t executed = sim.run_batch(batch_config, batch_rng, 200);
    std::uint64_t stepped = 0;
    for (std::uint64_t i = 0; i < executed; ++i) {
        stepper.step(step_rng);
        ++stepped;
    }
    EXPECT_EQ(executed, stepped);
    EXPECT_EQ(batch_config.size(), stepper.config().size());
}

TEST(RunBatch, ReturnsZeroCleanlyOnDegeneratePopulations) {
    // Populations of 0 or 1 agents have n(n−1) == 0 ordered pairs: no
    // encounter can ever happen, so the batch is trivially complete rather
    // than an error.
    const Protocol p = protocols::unary_threshold(2);
    const Simulator sim(p);
    Rng rng(1);
    Config empty(p.num_states());
    EXPECT_EQ(sim.run_batch(empty, rng, 10), 0u);
    EXPECT_EQ(empty.size(), 0);
    Config lonely = Config::single(p.num_states(), 0, 1);
    EXPECT_EQ(sim.run_batch(lonely, rng, 10), 0u);
    EXPECT_EQ(lonely.size(), 1);
    // fired_step reports the same boundary as "silent": nothing fires.
    std::uint64_t consumed = 99;
    Simulator::Trajectory alone(sim, lonely);
    EXPECT_EQ(alone.fired_step(rng, 10, &consumed), std::nullopt);
    EXPECT_EQ(consumed, 0u);
}

TEST(RunBatch, ConsumesBudgetExactlyInTheSparseRegime) {
    // A far-from-silent sparse configuration: the geometric silent-skip
    // regularly overshoots small budgets and must be clamped so `consumed`
    // is reported exactly — never past the budget.
    const Protocol p = protocols::collector_threshold(2);
    const Simulator sim(p);
    const auto t0 = p.input_state(0);
    const auto top = p.find_state("T");
    ASSERT_TRUE(top.has_value());
    Rng rng(31337);
    for (const std::uint64_t budget : {1u, 2u, 3u, 7u, 100u}) {
        // Two mergeable tokens drowned in accepted agents: tiny weight,
        // huge pair count.
        Config config(p.num_states());
        config.set(t0, 2);
        config.set(*top, 1 << 16);
        std::uint64_t total = 0;
        // Until something fires the configuration is not silent, so every
        // batch must consume its full budget, exactly.
        for (int round = 0; round < 50; ++round) {
            const std::uint64_t executed = sim.run_batch(config, rng, budget);
            EXPECT_EQ(executed, budget) << "budget " << budget << " round " << round;
            total += executed;
            if (config[t0] != 2) break;  // a token merged or was absorbed
        }
        EXPECT_EQ(total % budget, 0u);
    }
}

TEST(RunBatch, PairWeightsSurvivePopulationsBeyond2To31) {
    // Regression for the ROADMAP-flagged overflow: with n > 2³¹ agents the
    // ordered-pair weight n(n−1) exceeds int64; the engine now tracks pair
    // weights in 128-bit arithmetic instead of falling back to (or
    // corrupting) per-encounter stepping.
    const Protocol p = protocols::collector_threshold(1);  // x,x -> T,T; x,T -> T,T
    const Simulator sim(p);
    const StateId x = p.input_state(0);
    const auto top = p.find_state("T");
    ASSERT_TRUE(top.has_value());
    const AgentCount population = (AgentCount{1} << 32) + 3;

    // Dense boundary case: every pair among the x agents is active, so the
    // total weight itself passes int64 and every interaction fires.
    Config config = Config::single(p.num_states(), x, population);
    Rng rng(5);
    EXPECT_EQ(sim.run_batch(config, rng, 1'000), 1'000u);
    EXPECT_EQ(config.size(), population);
    EXPECT_GT(config[*top], 0);
    EXPECT_EQ(config[x] + config[*top], population);

    // Sparse boundary case: two stragglers in a sea of accepted agents —
    // the geometric skip must cover the whole budget without overflowing.
    Config sparse(p.num_states());
    sparse.set(x, 2);
    sparse.set(*top, AgentCount{1} << 32);
    Rng rng2(6);
    const std::uint64_t executed = sim.run_batch(sparse, rng2, 10'000);
    EXPECT_EQ(executed, 10'000u);
    EXPECT_EQ(sparse.size(), (AgentCount{1} << 32) + 2);
}

TEST(BatchedRun, InteractionCountDistributionMatchesPerStepReference) {
    // run() skips runs of silent encounters geometrically instead of
    // executing them one by one.  The number of interactions to
    // convergence must keep the same distribution as a naive per-step
    // reference loop.  Compare the means over many seeds (within 15% —
    // both samples have ~500 runs, stddev/mean is ~0.5, so the two means
    // differ by more than this only with negligible probability for a
    // correct implementation).
    const Protocol p = protocols::collector_threshold(6);
    const Simulator sim(p);
    const AgentCount input = 10;
    const int trials = 500;

    double batched_mean = 0.0;
    for (int s = 1; s <= trials; ++s) {
        Rng rng(static_cast<std::uint64_t>(s));
        const SimulationResult result = sim.run_input(input, rng);
        ASSERT_TRUE(result.converged);
        ASSERT_EQ(result.output, 1);
        batched_mean += static_cast<double>(result.interactions);
    }
    batched_mean /= trials;

    double stepped_mean = 0.0;
    for (int s = 1; s <= trials; ++s) {
        Rng rng(static_cast<std::uint64_t>(1'000'000 + s));
        Simulator::Trajectory trajectory(sim, p.initial_config(input));
        std::uint64_t interactions = 0;
        while (!trajectory.provably_stable()) {
            trajectory.step(rng);
            ++interactions;
            ASSERT_LT(interactions, 10'000'000u);
        }
        stepped_mean += static_cast<double>(interactions);
    }
    stepped_mean /= trials;

    EXPECT_NEAR(batched_mean / stepped_mean, 1.0, 0.15)
        << "batched mean " << batched_mean << " vs per-step mean " << stepped_mean;
}

TEST(BatchedRun, DeterministicUnderSameSeed) {
    const Protocol p = protocols::collector_threshold(12);
    const Simulator sim(p);
    Rng rng1(4242), rng2(4242);
    const SimulationResult r1 = sim.run_input(20, rng1);
    const SimulationResult r2 = sim.run_input(20, rng2);
    EXPECT_EQ(r1.interactions, r2.interactions);
    EXPECT_TRUE(r1.final_config == r2.final_config);
    EXPECT_EQ(r1.output, r2.output);
}

TEST(BatchedRun, EpochTrajectoryIsPinnedPerSeed) {
    // Epoch mode is distribution-identical to per-step, not trajectory-
    // identical, so the statistical suites cannot see a change that keeps
    // the law but reorders a draw or a floating-point sum (the epoch-sizing
    // rate accumulation, say).  This pins one seeded trajectory exactly:
    // double_exp_threshold(10) at 2⁴⁰ agents over ≈ 2400 epochs.  The values
    // were recorded with the O(#pairs) epoch-sizing scan that the pair-tree
    // walk replaced.
    const Protocol p = protocols::double_exp_threshold(10);
    const Simulator sim(p, PairSelect::fenwick);
    sim.reset_epoch_stats();
    Config config = p.initial_config(AgentCount{1} << 40);
    Rng rng(7);
    std::uint64_t fired = 0;
    const std::uint64_t budget = 10'000'000'000;
    EXPECT_EQ(sim.run_batch(config, rng, budget, false, nullptr, &fired, StepMode::epoch),
              budget);
    EXPECT_EQ(fired, 9'821'703'788u);
    EXPECT_EQ(rng.state(), 0x1e728c75c076dffeu);
    const EpochStats stats = sim.epoch_stats();
    EXPECT_EQ(stats.epochs, 2'357u);
    EXPECT_EQ(stats.epoch_fired, 9'821'703'735u);
    EXPECT_EQ(stats.fallback_fired, 53u);
    EXPECT_EQ(stats.rejected_draws, 0u);
    EXPECT_EQ(config_digest(config), 0x7ab346d4eec6099au);
}

TEST(BatchedRun, PerStepTrajectoryIsPinnedPerSeed) {
    // Scan and Fenwick pair selection are trajectory-identical per seed, but
    // they share the agent-count tree, so comparing them cannot catch a bug
    // in that tree (nor one that both pair paths would share).  These pins
    // fix three seeded per-step trajectories exactly: a Fenwick-selected
    // run, a scan-selected run, and one flagship trial to convergence.
    struct Pin {
        std::uint64_t executed, fired, rng_state, digest;
    };
    const auto run = [](const Protocol& p, PairSelect select, AgentCount population,
                        std::uint64_t seed, std::uint64_t budget, bool stop_when_stable) {
        const Simulator sim(p, select);
        Config config = p.initial_config(population);
        Rng rng(seed);
        std::uint64_t fired = 0;
        const std::uint64_t executed =
            sim.run_batch(config, rng, budget, stop_when_stable, nullptr, &fired);
        EXPECT_EQ(config.size(), population);
        return Pin{executed, fired, rng.state(), config_digest(config)};
    };

    // double_exp_threshold(10): 3076 non-silent pairs, so the pair tree.
    const Protocol de10 = protocols::double_exp_threshold(10);
    ASSERT_GE(de10.nonsilent_pairs().size(), 256u);
    const Pin fenwick =
        run(de10, PairSelect::fenwick, AgentCount{1} << 16, 11, 2'000'000'000, false);
    EXPECT_EQ(fenwick.executed, 2'000'000'000u);
    EXPECT_EQ(fenwick.fired, 65'503u);
    EXPECT_EQ(fenwick.rng_state, 0x2551c160a42c578u);
    EXPECT_EQ(fenwick.digest, 0xff3794ab3b5f0d26u);

    // collector_threshold(12): 17 non-silent pairs, so the scan.
    const Protocol collector = protocols::collector_threshold(12);
    ASSERT_LT(collector.nonsilent_pairs().size(), 256u);
    const Pin scan = run(collector, PairSelect::automatic, 4096, 13, 20'000'000, false);
    EXPECT_EQ(scan.executed, 47'312u);
    EXPECT_EQ(scan.fired, 6'848u);
    EXPECT_EQ(scan.rng_state, 0x189dc90804ba2a84u);
    EXPECT_EQ(scan.digest, 0xbe2e7c425eb8d54cu);

    // One flagship trial, double_exp_threshold(17) at 2¹⁴ agents, run until
    // the configuration is provably stable.
    const Protocol de17 = protocols::double_exp_threshold(17);
    const Pin flagship =
        run(de17, PairSelect::automatic, AgentCount{1} << 14, 17, std::uint64_t{1} << 62, true);
    EXPECT_EQ(flagship.executed, 2'187'528'697u);
    EXPECT_EQ(flagship.fired, 16'383u);
    EXPECT_EQ(flagship.rng_state, 0x34f72740e182a9f3u);
    EXPECT_EQ(flagship.digest, 0x5c26ef954d9b07fau);
}

TEST(BatchedRun, SilentConfigurationConvergesImmediately) {
    // All agents in the accepting epidemic state T: every enabled pair is
    // silent, so run() must converge without executing any interaction.
    const Protocol p = protocols::collector_threshold(6);
    const Simulator sim(p);
    const auto top = p.find_state("T");
    ASSERT_TRUE(top.has_value());
    Rng rng(5);
    const SimulationResult result = sim.run(Config::single(p.num_states(), *top, 8), rng);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.interactions, 0u);
    EXPECT_EQ(result.output, 1);
}

TEST(ParallelSweep, ProducesIdenticalRowsToSerialSweep) {
    const Protocol p = protocols::collector_threshold(8);
    const auto expected = [](AgentCount i) { return i >= 8 ? 1 : 0; };
    const std::vector<AgentCount> populations = {6, 8, 16, 32};

    ConvergenceSweepOptions serial;
    serial.runs_per_size = 8;
    serial.parallelism = 1;
    const auto serial_rows = convergence_sweep(p, populations, expected, serial);

    ConvergenceSweepOptions parallel = serial;
    parallel.parallelism = 4;
    const auto parallel_rows = convergence_sweep(p, populations, expected, parallel);

    ASSERT_EQ(serial_rows.size(), parallel_rows.size());
    for (std::size_t i = 0; i < serial_rows.size(); ++i) {
        const ConvergenceRow& s = serial_rows[i];
        const ConvergenceRow& q = parallel_rows[i];
        EXPECT_EQ(s.population, q.population);
        EXPECT_EQ(s.runs, q.runs);
        EXPECT_EQ(s.converged_runs, q.converged_runs);
        // Aggregation order is fixed, so even the floating-point statistics
        // are bit-identical.
        EXPECT_EQ(s.mean_parallel_time, q.mean_parallel_time);
        EXPECT_EQ(s.stddev_parallel_time, q.stddev_parallel_time);
        EXPECT_EQ(s.max_parallel_time, q.max_parallel_time);
        EXPECT_EQ(s.correct_fraction, q.correct_fraction);
    }
}

TEST(ParallelSweep, ZeroTrialsAndEmptyPopulationsReturnCleanly) {
    const Protocol p = protocols::collector_threshold(4);
    const auto expected = [](AgentCount i) { return i >= 4 ? 1 : 0; };

    ConvergenceSweepOptions no_trials;
    no_trials.runs_per_size = 0;
    const auto rows = convergence_sweep(p, {8, 16}, expected, no_trials);
    ASSERT_EQ(rows.size(), 2u);
    for (const ConvergenceRow& row : rows) {
        EXPECT_EQ(row.runs, 0u);
        EXPECT_EQ(row.converged_runs, 0u);
        EXPECT_EQ(row.mean_parallel_time, 0.0);
        EXPECT_EQ(row.correct_fraction, 0.0);
    }

    ConvergenceSweepOptions defaults;
    EXPECT_TRUE(convergence_sweep(p, {}, expected, defaults).empty());

    // A trial count that overflows is rejected before any trial runs.
    ConvergenceSweepOptions overflowing;
    overflowing.runs_per_size = std::uint64_t{1} << 62;
    EXPECT_THROW(convergence_sweep(p, {2, 3, 4, 5}, expected, overflowing),
                 std::invalid_argument);
}

TEST(RunBatch, FiredCountIsPerCallAndSumsCleanlyAcrossRestarts) {
    // The fired-count out-param is a *per-call* total, overwritten on every
    // call — restart loops (e11_throughput_sweep) sum it themselves, so a
    // stale value must never leak from one call into the next.
    const Protocol p = protocols::double_exp_threshold(2);
    const Simulator sim(p, PairSelect::fenwick);
    sim.reset_epoch_stats();

    for (const StepMode mode : {StepMode::per_step, StepMode::epoch}) {
        Rng rng(0xF1ED ^ static_cast<std::uint64_t>(mode));
        Config config = p.initial_config(20'000);
        std::uint64_t total_done = 0;
        std::uint64_t total_fired = 0;
        std::uint64_t fired_call = 0;
        for (int round = 0; round < 64; ++round) {
            const std::uint64_t chunk = 1 << 16;
            const std::uint64_t got =
                sim.run_batch(config, rng, chunk, false, nullptr, &fired_call, mode);
            EXPECT_LE(fired_call, got) << "a call cannot fire more than it consumed";
            total_done += got;
            total_fired += fired_call;
            if (got < chunk) config = p.initial_config(20'000);  // silent: restart
        }
        EXPECT_GT(total_fired, 0u);
        EXPECT_LT(total_fired, total_done);  // silent skips dominate eventually

        // Overwrite semantics: a silent config consumes and fires nothing,
        // and the out-param must say so rather than keep its old value.
        Config silent = Config::single(p.num_states(), *p.find_state("T"), 100);
        fired_call = 0xDEAD;
        EXPECT_EQ(sim.run_batch(silent, rng, 1'000, false, nullptr, &fired_call, mode), 0u);
        EXPECT_EQ(fired_call, 0u);
    }

    // Epoch-mode accounting cross-check: this simulator's counters saw only
    // the loops above, so every fired interaction is either epoch-batched
    // or a per-step fallback — per-call sums and global stats must agree
    // on where each firing went (no double-counting across restarts).
    const EpochStats stats = sim.epoch_stats();
    EXPECT_GT(stats.epochs, 0u);
    EXPECT_GT(stats.epoch_fired, 0u);
    Rng check_rng(0xF1ED ^ static_cast<std::uint64_t>(StepMode::epoch));
    Config config = p.initial_config(20'000);
    std::uint64_t epoch_fired_sum = 0;
    std::uint64_t fired_call = 0;
    for (int round = 0; round < 64; ++round) {
        const std::uint64_t got = sim.run_batch(config, check_rng, 1 << 16, false, nullptr,
                                                &fired_call, StepMode::epoch);
        epoch_fired_sum += fired_call;
        if (got < (1u << 16)) config = p.initial_config(20'000);
    }
    EXPECT_EQ(epoch_fired_sum, stats.epoch_fired + stats.fallback_fired)
        << "per-call fired sums must partition into epoch_fired + fallback_fired";
}

TEST(BatchedRun, ResumedRunsReportAbsoluteFiredTotals) {
    // A run resumed from a checkpoint starts its interaction *and* fired
    // counters at the snapshot's values (a Simulator::Trajectory built from
    // the snapshot's totals):
    // the ticks it writes and the result it returns must carry the same
    // absolute totals the uninterrupted run reports — under both stepping
    // modes, whose boundaries the hook rides.
    const Protocol p = protocols::collector_threshold(6);
    const Simulator sim(p, PairSelect::fenwick);
    struct Tick {
        std::uint64_t interactions;
        std::uint64_t fired;
    };

    for (const StepMode mode : {StepMode::per_step, StepMode::epoch}) {
        const std::uint64_t seed = 0xC0FFEE ^ static_cast<std::uint64_t>(mode);
        SimulationOptions options;
        options.step_mode = mode;
        options.epoch.min_firings = 4;
        options.checkpoint.every = 512;

        // Reference: the uninterrupted run and its full tick sequence.
        std::vector<Tick> reference;
        options.checkpoint.callback = [&](const CheckpointTick& tick) {
            reference.push_back({tick.interactions, tick.fired});
            return true;
        };
        Rng ref_rng(seed);
        const SimulationResult full = sim.run(p.initial_config(300), ref_rng, options);
        ASSERT_TRUE(full.converged);
        ASSERT_GE(reference.size(), 2u) << "workload too small to checkpoint twice";

        // Interrupt at the first tick, capturing the snapshot by hand.
        Config snap_config(p.num_states());
        std::uint64_t snap_rng_state = 0;
        Tick snap{0, 0};
        options.checkpoint.callback = [&](const CheckpointTick& tick) {
            snap_config = tick.config;
            snap_rng_state = tick.rng_state;
            snap = {tick.interactions, tick.fired};
            return false;  // graceful stop
        };
        Rng cut_rng(seed);
        const SimulationResult partial = sim.run(p.initial_config(300), cut_rng, options);
        EXPECT_FALSE(partial.converged);
        EXPECT_EQ(partial.interactions, reference.front().interactions);
        EXPECT_EQ(partial.fired, reference.front().fired);

        // Resume: counters seeded from the snapshot, stream from its state.
        std::vector<Tick> resumed;
        options.checkpoint.callback = [&](const CheckpointTick& tick) {
            resumed.push_back({tick.interactions, tick.fired});
            return true;
        };
        Rng resume_rng(0);
        resume_rng.set_state(snap_rng_state);
        const SimulationResult tail = sim.run(
            Simulator::Trajectory(sim, std::move(snap_config), {snap.interactions, snap.fired, 0}),
            resume_rng, options);
        ASSERT_TRUE(tail.converged);
        EXPECT_EQ(tail.interactions, full.interactions);
        EXPECT_EQ(tail.fired, full.fired);
        EXPECT_TRUE(tail.final_config == full.final_config);
        // The resumed ticks are exactly the uninterrupted run's tail: same
        // boundaries, same absolute totals — no double- or under-counting.
        ASSERT_EQ(resumed.size() + 1, reference.size());
        for (std::size_t i = 0; i < resumed.size(); ++i) {
            EXPECT_EQ(resumed[i].interactions, reference[i + 1].interactions) << "tick " << i;
            EXPECT_EQ(resumed[i].fired, reference[i + 1].fired) << "tick " << i;
        }
    }
}

TEST(BatchedRun, RunTrajectoryAndTicksArePinnedPerSeed) {
    // Pins three seeded run() calls exactly, checkpoint ticks included: a
    // Fenwick-selected per-step run, a scan-selected one, and an epoch run.
    // The values were recorded before run() and run_batch() shared one
    // stepping loop.  run_batch(…, stop_when_stable = true, hook) from the
    // same seed must replay each of them tick for tick.
    struct Case {
        Protocol protocol;
        PairSelect select;
        AgentCount population;
        std::uint64_t seed, max_interactions, every;
        StepMode mode;
    };
    struct Pin {
        std::uint64_t interactions = 0, fired = 0;
        bool converged = false;
        std::uint64_t rng_state = 0, digest = 0, ticks = 0;
        std::uint64_t tick_digest = 0xcbf29ce484222325u;  // FNV-1a over the tick fields
    };
    const auto recorder = [](Pin& pin) {
        return [&pin](const CheckpointTick& tick) {
            for (const std::uint64_t v : {tick.interactions, tick.fired, tick.rng_state})
                pin.tick_digest = (pin.tick_digest ^ v) * 0x100000001b3u;
            ++pin.ticks;
            return true;
        };
    };
    const auto via_run = [&](const Case& c) {
        const Simulator sim(c.protocol, c.select);
        Pin pin;
        SimulationOptions options;
        options.max_interactions = c.max_interactions;
        options.step_mode = c.mode;
        options.checkpoint = {c.every, recorder(pin)};
        Rng rng(c.seed);
        const SimulationResult result = sim.run_input(c.population, rng, options);
        pin.interactions = result.interactions;
        pin.fired = result.fired;
        pin.converged = result.converged;
        pin.rng_state = rng.state();
        pin.digest = config_digest(result.final_config);
        return pin;
    };
    const auto via_batch = [&](const Case& c) {
        const Simulator sim(c.protocol, c.select);
        Pin pin;
        const CheckpointHook hook{c.every, recorder(pin)};
        Config config = c.protocol.initial_config(c.population);
        Rng rng(c.seed);
        pin.interactions = sim.run_batch(config, rng, c.max_interactions, true, &hook,
                                         &pin.fired, c.mode);
        pin.converged = sim.is_provably_stable(config);
        pin.rng_state = rng.state();
        pin.digest = config_digest(config);
        return pin;
    };
    const auto expect_same = [](const Pin& a, const Pin& b) {
        EXPECT_EQ(a.interactions, b.interactions);
        EXPECT_EQ(a.fired, b.fired);
        EXPECT_EQ(a.converged, b.converged);
        EXPECT_EQ(a.rng_state, b.rng_state);
        EXPECT_EQ(a.digest, b.digest);
        EXPECT_EQ(a.ticks, b.ticks);
        EXPECT_EQ(a.tick_digest, b.tick_digest);
    };

    // Per-step, pair tree: double_exp_threshold(10) at 2¹⁶ agents.
    const Case fenwick{protocols::double_exp_threshold(10), PairSelect::fenwick,
                       AgentCount{1} << 16, 11, 10'000'000'000'000, 1'000'000'000,
                       StepMode::per_step};
    const Pin f = via_run(fenwick);
    EXPECT_EQ(f.interactions, 42'585'421'679u);
    EXPECT_EQ(f.fired, 65'535u);
    EXPECT_TRUE(f.converged);
    EXPECT_EQ(f.rng_state, 0xf1fc10bc5d974ea3u);
    EXPECT_EQ(f.digest, 0x768ffc5d1ad4859du);
    EXPECT_EQ(f.ticks, 13u);
    EXPECT_EQ(f.tick_digest, 0xfc2c97ceef4309ffu);
    expect_same(f, via_batch(fenwick));

    // Per-step, scan: collector_threshold(12) (17 non-silent pairs).
    const Case scan{protocols::collector_threshold(12), PairSelect::automatic, 4096, 13,
                    20'000'000, 1'000, StepMode::per_step};
    ASSERT_EQ(Simulator(scan.protocol).pair_selection(), PairSelect::scan);
    const Pin s = via_run(scan);
    EXPECT_EQ(s.interactions, 47'312u);
    EXPECT_EQ(s.fired, 6'848u);
    EXPECT_TRUE(s.converged);
    EXPECT_EQ(s.rng_state, 0x189dc90804ba2a84u);
    EXPECT_EQ(s.digest, 0xbe2e7c425eb8d54cu);
    EXPECT_EQ(s.ticks, 35u);
    EXPECT_EQ(s.tick_digest, 0x21be11589b0ca327u);
    expect_same(s, via_batch(scan));

    // Epoch: double_exp_threshold(10) at 2²⁰ agents.
    const Case epoch{protocols::double_exp_threshold(10), PairSelect::fenwick,
                     AgentCount{1} << 20, 7, 1'000'000'000'000'000, 200'000'000'000,
                     StepMode::epoch};
    const Pin e = via_run(epoch);
    EXPECT_EQ(e.interactions, 10'796'016'325'932u);
    EXPECT_EQ(e.fired, 1'048'575u);
    EXPECT_TRUE(e.converged);
    EXPECT_EQ(e.rng_state, 0x6bc0ff45bfe05038u);
    EXPECT_EQ(e.digest, 0x27a0f268c1c87e26u);
    EXPECT_EQ(e.ticks, 22u);
    EXPECT_EQ(e.tick_digest, 0xcadf9d20b31f74c2u);
    expect_same(e, via_batch(epoch));
}

TEST(BatchedRun, EpochMisconfigurationThrows) {
    // Epoch options that cannot size an epoch (min_firings = 0 would reach a
    // negative-binomial draw of zero successes on a noexcept path; drift <= 0
    // or scan selection would run no epoch at all) are typed errors, raised
    // before the configuration or the stream is touched.
    const Protocol de10 = protocols::double_exp_threshold(10);
    const Simulator fenwick(de10, PairSelect::fenwick);
    const auto rejects = [&](const Simulator& sim, const Protocol& p, const EpochOptions& epoch) {
        SimulationOptions options;
        options.step_mode = StepMode::epoch;
        options.epoch = epoch;
        Rng rng(3);
        EXPECT_THROW(sim.run_input(AgentCount{1} << 16, rng, options), std::invalid_argument);
        Config config = p.initial_config(AgentCount{1} << 16);
        const Config before = config;
        EXPECT_THROW(sim.run_batch(config, rng, 1'000'000, false, nullptr, nullptr,
                                   StepMode::epoch, epoch),
                     std::invalid_argument);
        EXPECT_TRUE(config == before);
        EXPECT_EQ(rng.state(), Rng(3).state());
    };
    EpochOptions zero_floor;
    zero_floor.min_firings = 0;
    rejects(fenwick, de10, zero_floor);
    EpochOptions inverted;
    inverted.min_firings = 64;
    inverted.max_firings = 63;
    rejects(fenwick, de10, inverted);
    for (const double drift : {0.0, -0.125, std::nan("")}) {
        EpochOptions bad_drift;
        bad_drift.drift = drift;
        rejects(fenwick, de10, bad_drift);
    }

    // Epoch mode under scan selection: double_exp_threshold(2) has too few
    // non-silent pairs for `automatic` to pick the pair tree.
    const Protocol de2 = protocols::double_exp_threshold(2);
    const Simulator scan(de2);
    ASSERT_EQ(scan.pair_selection(), PairSelect::scan);
    rejects(scan, de2, EpochOptions{});

    // The boundary values are accepted.
    EpochOptions tight;
    tight.min_firings = 1;
    tight.max_firings = 1;
    SimulationOptions options;
    options.max_interactions = 1'000'000;
    options.step_mode = StepMode::epoch;
    options.epoch = tight;
    Rng rng(3);
    EXPECT_EQ(fenwick.run_input(AgentCount{1} << 16, rng, options).interactions, 1'000'000u);
}

TEST(ParallelSweep, DefaultParallelismMatchesSerial) {
    const Protocol p = protocols::collector_threshold(4);
    const auto expected = [](AgentCount i) { return i >= 4 ? 1 : 0; };

    ConvergenceSweepOptions serial;
    serial.runs_per_size = 5;
    serial.parallelism = 1;
    ConvergenceSweepOptions defaulted = serial;
    defaulted.parallelism = 0;  // hardware concurrency

    const auto a = convergence_sweep(p, {8, 16}, expected, serial);
    const auto b = convergence_sweep(p, {8, 16}, expected, defaulted);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].converged_runs, b[i].converged_runs);
        EXPECT_EQ(a[i].mean_parallel_time, b[i].mean_parallel_time);
    }
}

}  // namespace
}  // namespace ppsc
