// Tests for Simulator::Trajectory, the caller-owned stepping state: a
// trajectory draws exactly what a fresh context over the same configuration
// would, so chained Trajectory::run_batch calls, repeated
// Simulator::run_batch calls (one fresh context each) and one run() agree
// per seed; and one const Simulator serves concurrent trajectories.
#include <gtest/gtest.h>

#include <cstdint>
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
    while (end.interactions < c.max_interactions && !trajectory.provably_stable()) {
        std::uint64_t fired = 0;
        end.interactions += trajectory.run_batch(rng, c.max_interactions - end.interactions,
                                                 true, &cut, &fired, c.mode);
        end.fired += fired;
        ++*calls;
    }
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
        std::uint64_t fired = 0;
        const std::uint64_t done = trajectory.run_batch(rng, 300'000, false, nullptr, &fired);
        return End{done, fired, rng.state(), config_digest(trajectory.config()),
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
        std::uint64_t fired = 0;
        const std::uint64_t done = reused.run_batch(rng, 300'000, false, nullptr, &fired);
        const End got{done, fired, rng.state(), config_digest(reused.config()),
                      reused.provably_stable()};
        EXPECT_EQ(got, fresh(population, static_cast<std::uint64_t>(population)));
    }
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
    std::uint64_t fired = 0;
    w.end.interactions = trajectory.run_batch(rng, 200'000, false, nullptr, &fired);
    w.end.fired = fired;
    EpochOptions epoch;
    epoch.min_firings = 8;
    w.end.interactions += trajectory.run_batch(rng, std::uint64_t{1} << 40, true, nullptr,
                                               &fired, StepMode::epoch, epoch);
    w.end.fired += fired;
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
