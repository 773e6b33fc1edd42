// Repeatable simulation experiments: convergence-time sweeps over
// population sizes (experiment E10) and the large-state-space throughput
// sweep over the double-exponential threshold family (experiment E11),
// used by bench_simulation and the examples.
//
// Trials are independent and seeded per (population, repetition) pair, so
// the sweep parallelises across worker threads without changing any
// per-trial result: the rows produced are bit-identical for every
// `parallelism` setting, including the serial path.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "sim/simulator.hpp"

namespace ppsc {

struct ConvergenceRow {
    AgentCount population = 0;
    std::uint64_t runs = 0;
    std::uint64_t converged_runs = 0;
    double mean_parallel_time = 0.0;
    double stddev_parallel_time = 0.0;
    double max_parallel_time = 0.0;
    double correct_fraction = 0.0;  ///< runs whose output matched `expected`
};

struct ConvergenceSweepOptions {
    std::uint64_t runs_per_size = 20;
    std::uint64_t seed = 0x5eed;
    /// Per-trial run() options.  With `simulation.step_mode == epoch` the
    /// sweep's simulator selects pairs by Fenwick tree, as epochs require.
    SimulationOptions simulation;
    /// Worker threads running trials: 1 = serial, 0 = one per hardware
    /// thread.  The produced rows do not depend on this setting.
    unsigned parallelism = 0;
    /// Trap-computation algorithm of the sweep's simulator.  Both produce
    /// identical traps and therefore identical rows; `reference` exists for
    /// the CI leg that asserts exactly that.  The worklist is what makes
    /// convergence (not just throughput) sweeps feasible at |Q| ≥ 10⁵.
    TrapCompute trap_compute = TrapCompute::worklist;
    /// Per-trial crash-safe checkpointing (sim/checkpoint.hpp): when
    /// `checkpoint_dir` is set and `checkpoint_every` > 0, every trial
    /// writes rotated snapshots into
    /// `<checkpoint_dir>/p<population>-r<repetition>/` every ≥
    /// checkpoint_every interactions, and a later sweep with the same
    /// protocol and options resumes each trial from its newest valid
    /// snapshot instead of replaying it — finished trials restore their
    /// final state and complete immediately.  Per-trial results (and
    /// therefore the rows) are identical to an uninterrupted sweep.
    std::string checkpoint_dir;
    std::uint64_t checkpoint_every = 0;
    std::size_t checkpoint_keep_last = 3;
    /// Graceful shutdown: when *stop becomes true (e.g. from a
    /// SIGTERM/SIGINT handler — std::atomic<bool> is async-signal-safe to
    /// store to), workers stop claiming new trials and in-flight trials
    /// stop at their next checkpoint boundary, each writing a final
    /// snapshot.  The sweep then returns normally; interrupted trials
    /// count as unconverged in the rows and resume on the next sweep.
    const std::atomic<bool>* stop = nullptr;
};

/// Runs `runs_per_size` seeded simulations of IC(i) for each population
/// size i in `populations`; `expected(i)` gives the ground-truth output.
/// Single-input protocols only.  Throws std::invalid_argument when the
/// trial count, populations.size() × runs_per_size, overflows.
std::vector<ConvergenceRow> convergence_sweep(
    const Protocol& protocol, const std::vector<AgentCount>& populations,
    const std::function<int(AgentCount)>& expected, const ConvergenceSweepOptions& options = {});

// --- Experiment E11: double-exponential threshold workload -----------------
//
// Sustained engine throughput on the succinct-counter family across |Q| and
// population.  Each row drives run_batch along the exact scheduler-chain
// distribution; when a trajectory reaches silence it restarts from IC, so
// the row measures full-trajectory throughput (merge phase + silent-skip
// steady state) on state spaces with |Q| ≫ 10³.

struct ThroughputRow {
    std::string protocol;             ///< family instance, e.g. "double_exp(8)"
    std::size_t num_states = 0;
    std::size_t nonsilent_pairs = 0;
    std::size_t rule_table_bytes = 0; ///< Protocol::rule_table_bytes()
    /// Seconds the row's Simulator spent computing its output traps — the
    /// stable-consensus setup cost the worklist fixpoint collapses from
    /// O(passes · |T|) to O(|T| + evictions · deg) at |Q| ≥ 10⁵.
    double trap_setup_seconds = 0.0;
    AgentCount population = 0;
    std::uint64_t interactions = 0;   ///< interactions executed for the row
    /// Fired (non-silent) interactions among them — summed over the row's
    /// run_batch calls, so IC restarts are never double-counted.  Epoch
    /// rows report their sustained rate in fired interactions per second:
    /// the silent majority is skipped analytically either way, so
    /// interactions_per_sec alone would hide what the batching buys.
    std::uint64_t fired = 0;
    double seconds = 0.0;             ///< wall-clock time for the row
    double interactions_per_sec = 0.0;
    double fired_per_sec = 0.0;
};

struct E11Options {
    /// Tower parameters n: each contributes double_exp_threshold(n)
    /// (η = 2^(2^n), |Q| = 2^n + 3) and, when include_dense is set and
    /// n ≤ max_dense_n, double_exp_threshold_dense(n) (η = 2^(2^n) − 1,
    /// |Q| ≈ 2^(n+1) with Θ(4^n) non-silent pairs).
    std::vector<int> tower_ns = {6, 8, 10};
    std::vector<AgentCount> populations = {1 << 12, 1 << 16};
    std::uint64_t interactions_per_row = 1 << 22;
    std::uint64_t seed = 0xE11;
    bool include_dense = true;
    /// Dense variants stop here: their Θ(4^n) construction is what makes
    /// the flagship-only n ≥ 13 rows (|Q| > 8000) worth sweeping
    /// separately.
    int max_dense_n = 10;
    /// Stepping mode of the swept simulators: `epoch` batches the fired
    /// interactions of the merge frontier into multinomial draws
    /// (sim/simulator.hpp, engine idea 5), which is what pushes the n ≥ 2⁴⁰
    /// flagship rows past 10⁹ fired interactions per second.  The swept
    /// simulators select fired pairs by Fenwick tree, as epochs require.
    StepMode step_mode = StepMode::per_step;
    EpochOptions epoch;
};

std::vector<ThroughputRow> e11_throughput_sweep(const E11Options& options = {});

}  // namespace ppsc
