// Thread-scaling tests for convergence_sweep (satellite of the epoch PR):
// rows must be bit-identical across `parallelism` settings — the sweep's
// documented contract — and on machines with ≥ 4 hardware threads a
// 4-worker sweep must actually run measurably faster than the serial one.
// The wall-clock test self-skips on smaller machines (CI containers and
// the dev box often expose a single core) and on hosts that cannot run
// four threads at once even on a pure spin loop (throttled or shared
// machines).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "protocols/double_exp_threshold.hpp"
#include "sim/experiment.hpp"

namespace ppsc {
namespace {

ConvergenceSweepOptions sweep_options(unsigned parallelism, StepMode step_mode) {
    ConvergenceSweepOptions options;
    options.runs_per_size = 24;
    options.seed = 0x5CA1E;
    options.parallelism = parallelism;
    options.simulation.max_interactions = std::uint64_t{1} << 30;
    options.simulation.step_mode = step_mode;
    return options;
}

std::vector<AgentCount> populations() { return {1 << 11, 1 << 12}; }

/// Best-of-3 wall-clock seconds of `run`: robust against one-off scheduler
/// hiccups without averaging away a genuine lack of scaling.
template <typename Run>
double best_of_3(Run run) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        run();
        const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
        best = std::min(best, elapsed.count());
    }
    return best;
}

/// Seconds for `threads` threads to share a fixed CPU-bound workload: an
/// LCG spin with no memory traffic, so the ratio of the 1- and 4-thread
/// times is the parallelism the host actually grants.
double spin_seconds(unsigned threads) {
    constexpr std::uint64_t kIterations = std::uint64_t{1} << 26;
    return best_of_3([threads] {
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t) {
            workers.emplace_back([t, threads] {
                std::uint64_t x = t + 1;
                for (std::uint64_t i = 0; i < kIterations / threads; ++i)
                    x = x * 6364136223846793005ull + 1442695040888963407ull;
                volatile std::uint64_t sink = x;
                (void)sink;
            });
        }
        for (std::thread& worker : workers) worker.join();
    });
}

void expect_rows_equal(const std::vector<ConvergenceRow>& a,
                       const std::vector<ConvergenceRow>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].population, b[i].population);
        EXPECT_EQ(a[i].runs, b[i].runs);
        EXPECT_EQ(a[i].converged_runs, b[i].converged_runs);
        // Bit-identical, not approximately equal: trials land in per-trial
        // slots and are aggregated serially, so even the floating-point
        // accumulation order matches the serial sweep.
        EXPECT_EQ(a[i].mean_parallel_time, b[i].mean_parallel_time) << "row " << i;
        EXPECT_EQ(a[i].stddev_parallel_time, b[i].stddev_parallel_time) << "row " << i;
        EXPECT_EQ(a[i].max_parallel_time, b[i].max_parallel_time) << "row " << i;
        EXPECT_EQ(a[i].correct_fraction, b[i].correct_fraction) << "row " << i;
    }
}

TEST(ParallelScaling, RowsAreIdenticalAcrossParallelismSettings) {
    // Runs everywhere (oversubscription is fine for a determinism check):
    // serial vs. 4 workers, in both stepping modes.
    const Protocol protocol = protocols::double_exp_threshold(2);
    const auto expected = [](AgentCount) { return 1; };
    for (const StepMode mode : {StepMode::per_step, StepMode::epoch}) {
        const auto serial =
            convergence_sweep(protocol, populations(), expected, sweep_options(1, mode));
        const auto parallel =
            convergence_sweep(protocol, populations(), expected, sweep_options(4, mode));
        expect_rows_equal(serial, parallel);
        for (const ConvergenceRow& row : serial) {
            EXPECT_EQ(row.converged_runs, row.runs);
            EXPECT_EQ(row.correct_fraction, 1.0);
        }
    }
}

TEST(ParallelScaling, FourWorkersBeatSerialWallClock) {
    if (std::thread::hardware_concurrency() < 4)
        GTEST_SKIP() << "needs >= 4 hardware threads, have "
                     << std::thread::hardware_concurrency();
    const double spin_serial = spin_seconds(1);
    const double spin_parallel = spin_seconds(4);
    if (spin_serial / spin_parallel < 2.0)
        GTEST_SKIP() << "host delivers < 2x on a 4-thread spin loop: 1 thread " << spin_serial
                     << " s vs 4 threads " << spin_parallel << " s";

    const Protocol protocol = protocols::double_exp_threshold(2);
    const auto expected = [](AgentCount) { return 1; };
    const auto timed = [&](unsigned parallelism) {
        return best_of_3([&] {
            const auto rows = convergence_sweep(protocol, populations(), expected,
                                                sweep_options(parallelism, StepMode::per_step));
            for (const ConvergenceRow& row : rows) EXPECT_EQ(row.converged_runs, row.runs);
        });
    };

    const double serial = timed(1);
    const double parallel = timed(4);
    // 4 workers over 48 independent trials: demand a conservative 1.5× so
    // the test stays green on noisy shared runners while still failing if
    // the sweep silently serialises (speedup ≈ 1).
    EXPECT_GT(serial / parallel, 1.5)
        << "serial " << serial << " s vs 4-worker " << parallel << " s";
}

}  // namespace
}  // namespace ppsc
