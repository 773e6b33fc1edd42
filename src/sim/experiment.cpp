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
    // Epoch stepping needs the pair-weight Fenwick tree; `automatic` would
    // pick the scan for protocols with few non-silent pairs.
    const Simulator simulator(protocol,
                              options.simulation.step_mode == StepMode::epoch
                                  ? PairSelect::fenwick
                                  : PairSelect::automatic,
                              options.trap_compute);
    const std::size_t total_trials = populations.size() * static_cast<std::size_t>(runs);

    const bool checkpointing = !options.checkpoint_dir.empty() && options.checkpoint_every != 0;
    const std::uint64_t fingerprint = checkpointing ? protocol_fingerprint(protocol) : 0;
    const auto stop_requested = [&options] {
        return options.stop != nullptr && options.stop->load(std::memory_order_relaxed);
    };

    // Every trial is fully determined by its (population, repetition) seed,
    // so trials can run in any order on any thread; results land in a
    // per-trial slot and are aggregated serially afterwards, keeping the
    // rows (including floating-point accumulation order) identical to the
    // serial sweep.
    std::vector<TrialResult> trials(total_trials);
    const auto run_trial = [&](std::size_t index) {
        const AgentCount population = populations[index / runs];
        const std::uint64_t r = index % runs;
        // One independent stream per (size, repetition) pair.
        Rng rng(options.seed ^ (static_cast<std::uint64_t>(population) << 20) ^ r);
        Config start = protocol.initial_config(population);
        SimulationOptions simulation = options.simulation;
        std::optional<CheckpointDir> dir;
        if (checkpointing) {
            // One rotation directory per trial; the trial's identity is in
            // the directory name, so re-sweeping with different populations
            // or repetition counts can never cross-resume trials.
            const std::string slot =
                "p" + std::to_string(population) + "-r" + std::to_string(r);
            dir.emplace((std::filesystem::path(options.checkpoint_dir) / slot).string(),
                        options.checkpoint_keep_last);
            const CheckpointDir::Latest latest = dir->load_latest(fingerprint);
            if (latest.checkpoint && latest.checkpoint->config.size() == start.size() &&
                latest.checkpoint->config.num_states() == start.num_states()) {
                start = latest.checkpoint->config;
                rng.set_state(latest.checkpoint->rng_state);
                simulation.initial_interactions = latest.checkpoint->interactions;
                // Resume the fired counter too, so the snapshots this trial
                // writes carry the same absolute totals the uninterrupted
                // trial's would (checkpoint_test pins the golden format).
                simulation.initial_fired = latest.checkpoint->fired;
            }
            simulation.checkpoint.every = options.checkpoint_every;
            simulation.checkpoint.callback = [&](const CheckpointTick& tick) {
                Checkpoint snapshot;
                snapshot.fingerprint = fingerprint;
                snapshot.config = tick.config;
                snapshot.rng_state = tick.rng_state;
                snapshot.interactions = tick.interactions;
                snapshot.fired = tick.fired;
                dir->write(snapshot);
                return !stop_requested();
            };
        }
        const SimulationResult result = simulator.run(std::move(start), rng, simulation);
        if (checkpointing) {
            // Final snapshot: a later sweep restores the trial here — a
            // finished trial re-reports its result without re-simulating,
            // an interrupted one continues from this exact point.
            Checkpoint snapshot;
            snapshot.fingerprint = fingerprint;
            snapshot.config = result.final_config;
            snapshot.rng_state = rng.state();
            snapshot.interactions = result.interactions;
            snapshot.fired = result.fired;
            dir->write(snapshot);
        }
        trials[index] = {result.converged, result.parallel_time, result.output};
    };

    parallel_for(
        total_trials, worker_count(options.parallelism, total_trials),
        [&](unsigned, std::size_t index) { run_trial(index); }, stop_requested);

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
                Config config = variant.protocol.initial_config(population);
                const auto start = std::chrono::steady_clock::now();
                std::uint64_t done = 0;
                std::uint64_t fired = 0;
                while (done < options.interactions_per_row) {
                    const std::uint64_t want = options.interactions_per_row - done;
                    // The fired out-param is per-call (overwritten, never
                    // accumulated by run_batch), so summing it here counts
                    // each restart's firings exactly once.
                    std::uint64_t fired_call = 0;
                    const std::uint64_t got =
                        simulator.run_batch(config, rng, want, false, nullptr, &fired_call,
                                            options.step_mode, options.epoch);
                    done += got;
                    fired += fired_call;
                    if (got < want) {
                        // A config that executes nothing is silent from the
                        // start (or degenerate) — restarting would spin.
                        if (got == 0) break;
                        // Sub-threshold trajectories end silent (≤ 1 token
                        // per level); restart from IC to keep measuring.
                        config = variant.protocol.initial_config(population);
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
                row.interactions = done;
                row.fired = fired;
                row.seconds = elapsed.count();
                row.interactions_per_sec =
                    row.seconds > 0.0 ? static_cast<double>(done) / row.seconds : 0.0;
                row.fired_per_sec =
                    row.seconds > 0.0 ? static_cast<double>(fired) / row.seconds : 0.0;
                rows.push_back(row);
            }
        }
    }
    return rows;
}

}  // namespace ppsc
