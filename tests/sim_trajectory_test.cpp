// Tests for Simulator::Trajectory, the caller-owned stepping state: a
// trajectory draws exactly what a fresh context over the same configuration
// would, so chained Trajectory::run_batch calls, repeated
// Simulator::run_batch calls (one fresh context each) and one run() agree
// per seed; a trajectory counts its whole run and ticks on absolute marks
// across calls and restarts; and one const Simulator serves concurrent
// trajectories.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "protocols/double_exp_threshold.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"

namespace ppsc {
namespace {

struct End {
    std::uint64_t interactions = 0;
    std::uint64_t fired = 0;
    std::uint64_t rng_state = 0;
    std::uint64_t digest = 0;
    bool stable = false;
    bool operator==(const End&) const = default;
};

struct Case {
    const char* label;
    Protocol protocol;
    AgentCount population;
    std::uint64_t seed;
    std::uint64_t max_interactions;
    std::uint64_t every;  ///< interactions between the chained calls' cuts
    StepMode mode;
};

End via_run(const Simulator& sim, const Case& c) {
    SimulationOptions options;
    options.max_interactions = c.max_interactions;
    options.step_mode = c.mode;
    Rng rng(c.seed);
    const SimulationResult result = sim.run_input(c.population, rng, options);
    return {result.interactions, result.fired, rng.state(), config_digest(result.final_config),
            result.converged};
}

/// A hook that ends each call at the first fired-step (or epoch) boundary
/// past `every` interactions.  Hooks consume no randomness, so cutting a
/// run into such calls leaves the trajectory as it is.
CheckpointHook cut_every(std::uint64_t every) {
    return {every, [](const CheckpointTick&) { return false; }};
}

End via_trajectory(const Simulator& sim, const Case& c, std::uint64_t* calls) {
    Simulator::Trajectory trajectory(sim, c.protocol.initial_config(c.population));
    Rng rng(c.seed);
    const CheckpointHook cut = cut_every(c.every);
    End end;
    while (trajectory.interactions() < c.max_interactions && !trajectory.provably_stable()) {
        trajectory.run_batch(rng, c.max_interactions - trajectory.interactions(), true, &cut,
                             c.mode);
        ++*calls;
    }
    end.interactions = trajectory.interactions();
    end.fired = trajectory.fired();
    end.rng_state = rng.state();
    end.digest = config_digest(trajectory.config());
    end.stable = trajectory.provably_stable();
    return end;
}

End via_simulator_batches(const Simulator& sim, const Case& c) {
    Config config = c.protocol.initial_config(c.population);
    Rng rng(c.seed);
    const CheckpointHook cut = cut_every(c.every);
    End end;
    while (end.interactions < c.max_interactions && !sim.is_provably_stable(config)) {
        std::uint64_t fired = 0;
        end.interactions += sim.run_batch(config, rng, c.max_interactions - end.interactions,
                                          true, &cut, &fired, c.mode);
        end.fired += fired;
    }
    end.rng_state = rng.state();
    end.digest = config_digest(config);
    end.stable = sim.is_provably_stable(config);
    return end;
}

TEST(Trajectory, ChainedBatchesRepeatedBatchesAndRunAgreePerSeed) {
    const std::vector<Case> cases = {
        // Per-step to convergence, through the sparse regime's silent skips.
        {"per-step, 2^12 agents", protocols::double_exp_threshold(6), AgentCount{1} << 12, 3,
         std::uint64_t{1} << 40, 20'000'000, StepMode::per_step},
        // Per-step past 2³¹ agents: the Int128 context, dense regime.
        {"per-step, 2^32 + 3 agents", protocols::double_exp_threshold(4),
         (AgentCount{1} << 32) + 3, 5, 400'000, 25'000, StepMode::per_step},
        // Epoch mode to convergence on the int64 context.
        {"epoch, 2^20 agents", protocols::double_exp_threshold(8), AgentCount{1} << 20, 7,
         std::uint64_t{1} << 50, 50'000'000'000, StepMode::epoch},
        // Epoch mode past 2³¹ agents: the Int128 context.
        {"epoch, 2^40 agents", protocols::double_exp_threshold(10), AgentCount{1} << 40, 11,
         2'000'000'000, 100'000'000, StepMode::epoch},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.label);
        const Simulator sim(c.protocol, PairSelect::fenwick);
        const End run = via_run(sim, c);
        std::uint64_t calls = 0;
        const End chained = via_trajectory(sim, c, &calls);
        EXPECT_GE(calls, 3u) << "the cuts must split the run into several calls";
        EXPECT_GT(run.fired, 0u);
        EXPECT_EQ(chained, run);
        EXPECT_EQ(via_simulator_batches(sim, c), run);
    }
}

TEST(Trajectory, RestartMatchesAFreshTrajectory) {
    // restart() reuses the context's buffers, switching the weight width
    // when the population crosses 2³¹; what it draws next must be what a
    // trajectory built afresh at that configuration draws.
    const Protocol protocol = protocols::double_exp_threshold(5);
    const Simulator sim(protocol, PairSelect::fenwick);
    const auto fresh = [&](AgentCount population, std::uint64_t seed) {
        Simulator::Trajectory trajectory(sim, protocol.initial_config(population));
        Rng rng(seed);
        const std::uint64_t done = trajectory.run_batch(rng, 300'000);
        return End{done, trajectory.fired(), rng.state(), config_digest(trajectory.config()),
                   trajectory.provably_stable()};
    };
    Simulator::Trajectory reused(sim, protocol.initial_config(5000));
    Rng warm_up(1);
    reused.run_batch(warm_up, 1'000'000);
    for (const AgentCount population : {AgentCount{3000}, (AgentCount{1} << 33) + 1,
                                        AgentCount{1} << 31, AgentCount{4097}}) {
        SCOPED_TRACE(population);
        reused.restart(protocol.initial_config(population));
        Rng rng(population);
        const std::uint64_t fired_before = reused.fired();
        const std::uint64_t done = reused.run_batch(rng, 300'000);
        const End got{done, reused.fired() - fired_before, rng.state(),
                      config_digest(reused.config()), reused.provably_stable()};
        EXPECT_EQ(got, fresh(population, static_cast<std::uint64_t>(population)));
    }
}

/// A checkpoint tick as a hook saw it.
struct Mark {
    std::uint64_t interactions = 0;
    std::uint64_t fired = 0;
    std::uint64_t restarts = 0;
    std::uint64_t rng_state = 0;
    std::uint64_t digest = 0;
    bool operator==(const Mark&) const = default;
};

Mark mark_of(const CheckpointTick& tick) {
    return {tick.interactions, tick.fired, tick.restarts, tick.rng_state,
            config_digest(tick.config)};
}

// double_exp(3) at 512 agents goes silent every ~2·10⁵ interactions, so a
// long run restarts from IC many times.
constexpr AgentCount kRestartingAgents = 512;
constexpr std::uint64_t kRestartingBudget = 4'000'000;
constexpr std::uint64_t kCadence = 50'000;

/// A durable run's loop on one trajectory: chained run_batch calls up to
/// the budget, restarting from IC whenever the trajectory goes silent.
/// Returns the calls' interactions and the restarts, added up.
RunTotals restart_loop(Simulator::Trajectory& trajectory, const Protocol& protocol, Rng& rng,
                       const CheckpointHook& hook) {
    RunTotals sums;
    while (trajectory.interactions() < kRestartingBudget) {
        const std::uint64_t got =
            trajectory.run_batch(rng, kRestartingBudget - trajectory.interactions(), false, &hook);
        sums.interactions += got;
        if (trajectory.interactions() >= kRestartingBudget || got == 0) break;
        trajectory.restart(protocol.initial_config(kRestartingAgents));
        ++sums.restarts;
    }
    return sums;
}

TEST(Trajectory, CadenceAndTotalsCountTheWholeRunAcrossRestarts) {
    const Protocol protocol = protocols::double_exp_threshold(3);
    const Simulator sim(protocol);

    // Reference: one fresh trajectory per call (Simulator::run_batch), a
    // hook at every fired step, and the absolute marks filtered here.
    std::vector<Mark> want;
    RunTotals sums;
    {
        Config config = protocol.initial_config(kRestartingAgents);
        Rng rng(7);
        std::uint64_t next_mark = kCadence;
        CheckpointHook every_step;
        every_step.every = 1;
        every_step.callback = [&](const CheckpointTick& tick) {
            const CheckpointTick absolute{tick.config, tick.rng_state,
                                          sums.interactions + tick.interactions,
                                          sums.fired + tick.fired, sums.restarts};
            if (absolute.interactions >= next_mark) {
                want.push_back(mark_of(absolute));
                next_mark = absolute.interactions + kCadence;
            }
            return true;
        };
        while (sums.interactions < kRestartingBudget) {
            std::uint64_t fired = 0;
            const std::uint64_t got = sim.run_batch(
                config, rng, kRestartingBudget - sums.interactions, false, &every_step, &fired);
            sums.interactions += got;
            sums.fired += fired;
            if (sums.interactions >= kRestartingBudget || got == 0) break;
            config = protocol.initial_config(kRestartingAgents);
            ++sums.restarts;
        }
    }
    ASSERT_GE(sums.restarts, 10u) << "the run must restart from IC many times";
    ASSERT_GE(want.size(), 40u);

    Simulator::Trajectory trajectory(sim, protocol.initial_config(kRestartingAgents));
    Rng rng(7);
    std::vector<Mark> got;
    const CheckpointHook hook{kCadence, [&](const CheckpointTick& tick) {
                                  got.push_back(mark_of(tick));
                                  return true;
                              }};
    const RunTotals calls = restart_loop(trajectory, protocol, rng, hook);
    EXPECT_EQ(got, want) << "ticks must land on the every-step reference's boundaries";
    EXPECT_EQ(trajectory.interactions(), sums.interactions);
    EXPECT_EQ(trajectory.fired(), sums.fired);
    EXPECT_EQ(trajectory.restarts(), sums.restarts);
    EXPECT_EQ(trajectory.interactions(), calls.interactions);
    EXPECT_EQ(trajectory.restarts(), calls.restarts);
}

TEST(Trajectory, ATrajectoryBuiltFromATicksTotalsContinuesTheRunsTicks) {
    const Protocol protocol = protocols::double_exp_threshold(3);
    const Simulator sim(protocol);
    struct Snapshot {
        Config config{0};
        std::uint64_t rng_state = 0;
        RunTotals totals;
    };

    // Uninterrupted, keeping every tick and a snapshot at the middle one.
    std::vector<Mark> whole;
    std::optional<Snapshot> middle;
    constexpr std::size_t kCut = 30;
    Simulator::Trajectory uninterrupted(sim, protocol.initial_config(kRestartingAgents));
    Rng rng(7);
    const CheckpointHook record{kCadence, [&](const CheckpointTick& tick) {
                                    whole.push_back(mark_of(tick));
                                    if (whole.size() == kCut)
                                        middle = Snapshot{tick.config, tick.rng_state,
                                                          {tick.interactions, tick.fired,
                                                           tick.restarts}};
                                    return true;
                                }};
    restart_loop(uninterrupted, protocol, rng, record);
    ASSERT_TRUE(middle.has_value());
    ASSERT_GT(whole.size(), kCut + 10);
    ASSERT_GT(middle->totals.restarts, 0u);

    // Resumed from the snapshot: the ticks after it, and the run's end.
    std::vector<Mark> tail;
    Simulator::Trajectory resumed(sim, middle->config, middle->totals);
    Rng resumed_rng(0);
    resumed_rng.set_state(middle->rng_state);
    const CheckpointHook follow{kCadence, [&](const CheckpointTick& tick) {
                                    tail.push_back(mark_of(tick));
                                    return true;
                                }};
    restart_loop(resumed, protocol, resumed_rng, follow);
    EXPECT_EQ(tail, std::vector<Mark>(whole.begin() + kCut, whole.end()));
    EXPECT_EQ(resumed.interactions(), uninterrupted.interactions());
    EXPECT_EQ(resumed.fired(), uninterrupted.fired());
    EXPECT_EQ(resumed.restarts(), uninterrupted.restarts());
    EXPECT_EQ(resumed_rng.state(), rng.state());
    EXPECT_EQ(config_digest(resumed.config()), config_digest(uninterrupted.config()));
}

/// Everything one thread does with its own trajectory on a shared
/// simulator, folded into comparable values.
struct Workout {
    std::uint64_t trace = 0xcbf29ce484222325u;  // FNV-1a over what was drawn
    End end;
    bool silent = false;
    bool probe_stable = false;
    bool operator==(const Workout&) const = default;

    void mix(std::uint64_t value) { trace = (trace ^ value) * 0x100000001b3u; }
};

Workout work_out(const Simulator& sim, const Protocol& protocol, std::uint64_t seed) {
    Workout w;
    Rng rng(seed);
    Simulator::Trajectory trajectory(sim, protocol.initial_config(3000 + 97 * seed));
    for (int i = 0; i < 300; ++i) {
        const auto [s1, s2] = trajectory.sample_pair(rng);
        w.mix(static_cast<std::uint64_t>(s1));
        w.mix(static_cast<std::uint64_t>(s2));
        const auto fired = trajectory.step(rng);
        w.mix(fired ? static_cast<std::uint64_t>(*fired) + 1 : 0);
    }
    for (int i = 0; i < 300; ++i) {
        std::uint64_t consumed = 0;
        const auto fired = trajectory.fired_step(rng, std::uint64_t{1} << 30, &consumed);
        w.mix(fired ? static_cast<std::uint64_t>(*fired) + 1 : 0);
        w.mix(consumed);
    }
    const RunTotals before{trajectory.interactions(), trajectory.fired()};
    trajectory.run_batch(rng, 200'000);
    EpochOptions epoch;
    epoch.min_firings = 8;
    trajectory.run_batch(rng, std::uint64_t{1} << 40, true, nullptr, StepMode::epoch, epoch);
    w.end.interactions = trajectory.interactions() - before.interactions;
    w.end.fired = trajectory.fired() - before.fired;
    w.end.stable = trajectory.provably_stable();
    w.silent = trajectory.silent();
    w.probe_stable = sim.is_provably_stable(trajectory.config());
    w.end.digest = config_digest(trajectory.config());
    const SimulationResult run = sim.run_input(500 + static_cast<AgentCount>(seed), rng);
    w.mix(run.interactions);
    w.mix(config_digest(run.final_config));
    w.end.rng_state = rng.state();
    return w;
}

TEST(Trajectory, ThreadsSharingOneSimulatorReproduceTheSerialResults) {
    const Protocol protocol = protocols::double_exp_threshold(6);
    const Simulator sim(protocol, PairSelect::fenwick);
    constexpr std::size_t kThreads = 4;

    sim.reset_epoch_stats();
    std::vector<Workout> serial;
    for (std::size_t t = 0; t < kThreads; ++t) serial.push_back(work_out(sim, protocol, t + 1));
    const EpochStats serial_stats = sim.epoch_stats();
    EXPECT_GT(serial_stats.epochs + serial_stats.fallback_fired, 0u);

    sim.reset_epoch_stats();
    std::vector<Workout> threaded(kThreads);
    {
        std::vector<std::jthread> workers;
        for (std::size_t t = 0; t < kThreads; ++t)
            workers.emplace_back([&, t] { threaded[t] = work_out(sim, protocol, t + 1); });
    }
    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_TRUE(threaded[t] == serial[t]) << "thread " << t;
        EXPECT_TRUE(threaded[t].end.stable);
        EXPECT_EQ(threaded[t].probe_stable, threaded[t].end.stable) << "thread " << t;
    }
    // The epoch counters are the simulator's only shared mutable state; they
    // accumulate atomically to the serial totals.
    const EpochStats threaded_stats = sim.epoch_stats();
    EXPECT_EQ(threaded_stats.epochs, serial_stats.epochs);
    EXPECT_EQ(threaded_stats.epoch_fired, serial_stats.epoch_fired);
    EXPECT_EQ(threaded_stats.fallback_fired, serial_stats.fallback_fired);
    EXPECT_EQ(threaded_stats.rejected_draws, serial_stats.rejected_draws);
}

}  // namespace
}  // namespace ppsc
