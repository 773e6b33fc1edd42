#include "sim/experiment.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>

#include "protocols/double_exp_threshold.hpp"
#include "sim/checkpoint.hpp"
#include "sim/stats.hpp"
#include "support/parallel.hpp"

namespace ppsc {

namespace {

struct TrialResult {
    bool converged = false;
    double parallel_time = 0.0;
    std::optional<int> output;
};

}  // namespace

std::vector<ConvergenceRow> convergence_sweep(const Protocol& protocol,
                                              const std::vector<AgentCount>& populations,
                                              const std::function<int(AgentCount)>& expected,
                                              const ConvergenceSweepOptions& options) {
    const std::uint64_t runs = options.runs_per_size;
    if (runs != 0 && populations.size() > std::numeric_limits<std::size_t>::max() / runs)
        throw std::invalid_argument(
            "convergence_sweep: populations x runs_per_size overflows the trial count");
    const bool checkpointing = !options.checkpoint_dir.empty();
    const bool hooked = checkpointing || options.stop != nullptr;
    // Epoch stepping needs the pair-weight Fenwick tree; `automatic` would
    // pick the scan for protocols with few non-silent pairs.
    const Simulator simulator(protocol,
                              options.simulation.step_mode == StepMode::epoch
                                  ? PairSelect::fenwick
                                  : PairSelect::automatic,
                              options.trap_compute);
    const std::size_t total_trials = populations.size() * static_cast<std::size_t>(runs);
    const std::uint64_t fingerprint = checkpointing ? protocol_fingerprint(protocol) : 0;
    // A trial that throws (a snapshot that cannot be written) stops the
    // others as a stop request would, so the error surfaces at once.
    std::atomic<bool> failed{false};
    const auto stop_requested = [&] {
        return failed.load(std::memory_order_relaxed) ||
               (options.stop != nullptr && options.stop->load(std::memory_order_relaxed));
    };

    // One independent stream per (size, repetition) pair.
    const auto trial_seed = [&](std::size_t index) {
        const auto population = static_cast<std::uint64_t>(populations[index / runs]);
        return options.seed ^ (population << 20) ^ (index % runs);
    };
    // One rotation directory per trial, named after the trial: re-sweeping
    // with other populations or repetition counts uses other directories.
    const auto trial_checkpoints = [&](std::size_t index) {
        const std::string slot = "p" + std::to_string(populations[index / runs]) + "-r" +
                                 std::to_string(index % runs);
        return RunCheckpoints((std::filesystem::path(options.checkpoint_dir) / slot).string(),
                              options.checkpoint_keep_last, fingerprint, trial_seed(index),
                              options.seed);
    };
    // A snapshot of another seed or population is refused before any trial
    // runs, so nothing is written or pruned.
    for (std::size_t index = 0; checkpointing && index < total_trials; ++index)
        trial_checkpoints(index).resume_point(protocol.initial_config(populations[index / runs]));

    // Every trial is fully determined by its (population, repetition) seed,
    // so trials can run in any order on any thread; results land in a
    // per-trial slot and are aggregated serially afterwards, keeping the
    // rows (including floating-point accumulation order) identical to the
    // serial sweep.
    std::vector<TrialResult> trials(total_trials);
    const auto run_trial = [&](std::size_t index) {
        const AgentCount population = populations[index / runs];
        Rng rng(trial_seed(index));
        Config start = protocol.initial_config(population);
        RunTotals totals;
        std::optional<RunCheckpoints> checkpoints;
        if (checkpointing) {
            checkpoints.emplace(trial_checkpoints(index));
            if (CheckpointDir::Latest latest = checkpoints->resume_point(start);
                latest.checkpoint) {
                start = std::move(latest.checkpoint->config);
                rng.set_state(latest.checkpoint->rng_state);
                totals = {latest.checkpoint->interactions, latest.checkpoint->fired,
                          latest.checkpoint->restarts};
            }
        }
        SimulationOptions simulation = options.simulation;
        if (hooked)
            simulation.checkpoint = {options.checkpoint_every, [&](const CheckpointTick& tick) {
                                         if (checkpoints) checkpoints->write(tick);
                                         return !stop_requested();
                                     }};
        const SimulationResult result = simulator.run(
            Simulator::Trajectory(simulator, std::move(start), totals), rng, simulation);
        // Final snapshot: a later sweep restores the trial here — a
        // finished trial re-reports its result without re-simulating, an
        // interrupted one continues from this exact point.
        if (checkpoints)
            checkpoints->write({result.final_config, rng.state(), result.interactions,
                                result.fired, totals.restarts});
        trials[index] = {result.converged, result.parallel_time, result.output};
    };

    parallel_for(
        total_trials, worker_count(options.parallelism, total_trials),
        [&](unsigned, std::size_t index) {
            try {
                run_trial(index);
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                throw;
            }
        },
        stop_requested);

    std::vector<ConvergenceRow> rows;
    rows.reserve(populations.size());
    for (std::size_t pi = 0; pi < populations.size(); ++pi) {
        const AgentCount population = populations[pi];
        RunningStats time_stats;
        std::uint64_t converged = 0, correct = 0;
        for (std::uint64_t r = 0; r < runs; ++r) {
            const TrialResult& trial = trials[pi * runs + r];
            if (trial.converged) {
                ++converged;
                time_stats.add(trial.parallel_time);
            }
            if (trial.output && *trial.output == expected(population)) ++correct;
        }
        ConvergenceRow row;
        row.population = population;
        row.runs = runs;
        row.converged_runs = converged;
        row.mean_parallel_time = time_stats.mean();
        row.stddev_parallel_time = time_stats.stddev();
        row.max_parallel_time = time_stats.max();
        row.correct_fraction =
            runs == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(runs);
        rows.push_back(row);
    }
    return rows;
}

std::vector<ThroughputRow> e11_throughput_sweep(const E11Options& options) {
    std::vector<ThroughputRow> rows;
    std::uint64_t row_index = 0;
    for (const int n : options.tower_ns) {
        struct Variant {
            std::string label;
            Protocol protocol;
        };
        std::vector<Variant> variants;
        variants.push_back(
            {"double_exp(" + std::to_string(n) + ")", protocols::double_exp_threshold(n)});
        if (options.include_dense && n >= 1 && n <= options.max_dense_n) {
            variants.push_back({"double_exp_dense(" + std::to_string(n) + ")",
                                protocols::double_exp_threshold_dense(n)});
        }
        for (const Variant& variant : variants) {
            const Simulator simulator(variant.protocol, PairSelect::fenwick);
            for (const AgentCount population : options.populations) {
                Rng rng(options.seed ^ (row_index++ << 32));
                const auto start = std::chrono::steady_clock::now();
                Simulator::Trajectory trajectory(simulator,
                                                 variant.protocol.initial_config(population));
                while (trajectory.interactions() < options.interactions_per_row) {
                    const std::uint64_t want =
                        options.interactions_per_row - trajectory.interactions();
                    const std::uint64_t got = trajectory.run_batch(
                        rng, want, false, nullptr, options.step_mode, options.epoch);
                    if (got < want) {
                        // A config that executes nothing is silent from the
                        // start (or degenerate) — restarting would spin.
                        if (got == 0) break;
                        // Sub-threshold trajectories end silent (≤ 1 token
                        // per level); restart from IC to keep measuring.
                        trajectory.restart(variant.protocol.initial_config(population));
                    }
                }
                const std::chrono::duration<double> elapsed =
                    std::chrono::steady_clock::now() - start;
                ThroughputRow row;
                row.protocol = variant.label;
                row.num_states = variant.protocol.num_states();
                row.nonsilent_pairs = variant.protocol.nonsilent_pairs().size();
                row.rule_table_bytes = variant.protocol.rule_table_bytes();
                row.trap_setup_seconds = simulator.trap_setup_seconds();
                row.population = population;
                row.interactions = trajectory.interactions();
                row.fired = trajectory.fired();
                row.seconds = elapsed.count();
                row.interactions_per_sec =
                    row.seconds > 0.0 ? static_cast<double>(row.interactions) / row.seconds : 0.0;
                row.fired_per_sec =
                    row.seconds > 0.0 ? static_cast<double>(row.fired) / row.seconds : 0.0;
                rows.push_back(row);
            }
        }
    }
    return rows;
}

}  // namespace ppsc
