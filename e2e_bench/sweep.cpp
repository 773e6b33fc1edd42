// sweep_flagship: the `protocol_tool sweep` path on the E11 flagship,
// double_exp_threshold(17) (|Q| = 131075), over populations 2^10..2^20 —
// all below η = 2^(2^17), so every trial must converge to output 0.
//
// Timed iteration: one convergence_sweep on min(4, nproc) workers.  After
// the loop every trial is replayed serially through Simulator::run with
// the sweep's per-trial seed; the replayed rows must be bit-identical to
// the sweep's, and the replay supplies the fired-interaction count (and,
// traced, the per-trial Simulator::run spans).
#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "protocols/families.hpp"
#include "sim/experiment.hpp"
#include "sim/stats.hpp"

namespace e2e {

namespace {

constexpr std::uint64_t kRunsPerSize = 8;

const std::vector<ppsc::AgentCount> kPopulations = {
    ppsc::AgentCount{1} << 10, ppsc::AgentCount{1} << 14, ppsc::AgentCount{1} << 16,
    ppsc::AgentCount{1} << 18, ppsc::AgentCount{1} << 20,
};

bool same_rows(const std::vector<ppsc::ConvergenceRow>& a,
               const std::vector<ppsc::ConvergenceRow>& b) {
    if (a.size() != b.size()) return false;
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].population != b[i].population || a[i].runs != b[i].runs ||
            a[i].converged_runs != b[i].converged_runs ||
            bits(a[i].mean_parallel_time) != bits(b[i].mean_parallel_time) ||
            bits(a[i].stddev_parallel_time) != bits(b[i].stddev_parallel_time) ||
            bits(a[i].max_parallel_time) != bits(b[i].max_parallel_time) ||
            bits(a[i].correct_fraction) != bits(b[i].correct_fraction))
            return false;
    }
    return true;
}

struct Replay {
    std::vector<ppsc::ConvergenceRow> rows;
    std::uint64_t fired = 0;
    std::uint64_t interactions = 0;
    std::uint64_t failed_trials = 0;
    double trap_setup_s = 0.0;
    std::vector<double> smallest_run_s;  ///< Simulator::run spans at the smallest population
};

/// Serial replay of convergence_sweep: same per-trial seeds, same
/// aggregation order, so the rows must match bit for bit.
Replay replay_sweep(const ppsc::Protocol& protocol, const ppsc::ConvergenceSweepOptions& options,
                    Tracer& tracer) {
    Replay replay;
    Span ctor_span(tracer, "sim.ctor");
    const ppsc::Simulator simulator(protocol, ppsc::PairSelect::automatic, options.trap_compute);
    ctor_span.stop();
    replay.trap_setup_s = simulator.trap_setup_seconds();
    for (const ppsc::AgentCount population : kPopulations) {
        ppsc::RunningStats time_stats;
        std::uint64_t converged = 0, correct = 0;
        for (std::uint64_t r = 0; r < options.runs_per_size; ++r) {
            ppsc::Rng rng(options.seed ^ (static_cast<std::uint64_t>(population) << 20) ^ r);
            Span run_span(tracer, "sim.run");
            const ppsc::SimulationResult result =
                simulator.run(protocol.initial_config(population), rng, options.simulation);
            const double run_s = run_span.stop();
            if (population == kPopulations.front()) replay.smallest_run_s.push_back(run_s);
            replay.fired += result.fired;
            replay.interactions += result.interactions;
            if (result.converged) {
                ++converged;
                time_stats.add(result.parallel_time);
            }
            const bool ok = result.output && *result.output == 0;
            if (ok) ++correct;
            if (!result.converged || !ok) ++replay.failed_trials;
        }
        ppsc::ConvergenceRow row;
        row.population = population;
        row.runs = options.runs_per_size;
        row.converged_runs = converged;
        row.mean_parallel_time = time_stats.mean();
        row.stddev_parallel_time = time_stats.stddev();
        row.max_parallel_time = time_stats.max();
        row.correct_fraction =
            static_cast<double>(correct) / static_cast<double>(options.runs_per_size);
        replay.rows.push_back(row);
    }
    return replay;
}

}  // namespace

void run_sweep_flagship(const RunConfig& config, Tracer& tracer, Report& report) {
    std::optional<ppsc::Protocol> protocol;
    const std::vector<std::string> family_args = {"17"};
    tracer.set_enabled(config.trace);
    const Timed setup = timed_setup(tracer, 7, [&](bool keep) {
        Span span(tracer, "protocols.build");
        ppsc::Protocol built = ppsc::protocols::build_family("double_exp", family_args);
        if (keep) protocol.emplace(std::move(built));
    });

    ppsc::ConvergenceSweepOptions options;
    options.runs_per_size = kRunsPerSize;
    options.seed = derive_seed(config.seed, 0x5eed);
    options.parallelism = sweep_workers();
    // No interaction cap worth the name: below η the trajectories end
    // silent, and the geometric silent-skip jumps over the ~n² encounters
    // the last merges wait for, so only fired steps cost time.
    options.simulation.max_interactions = std::uint64_t{1} << 62;
    const auto expected = [](ppsc::AgentCount) { return 0; };
    const std::uint64_t trials = kRunsPerSize * kPopulations.size();

    std::vector<ppsc::ConvergenceRow> first_rows;
    const auto iteration = [&](std::size_t) {
        const auto start = Clock::now();
        std::vector<ppsc::ConvergenceRow> rows;
        {
            Span span(tracer, "experiment.sweep");
            rows = ppsc::convergence_sweep(*protocol, kPopulations, expected, options);
        }
        const double seconds = seconds_since(start);
        report.attempted += trials;
        for (const ppsc::ConvergenceRow& row : rows) {
            const auto correct_runs = static_cast<std::uint64_t>(
                row.correct_fraction * static_cast<double>(row.runs) + 0.5);
            report.failed += row.runs - std::min(row.converged_runs, correct_runs);
        }
        if (first_rows.empty()) first_rows = rows;
        report.check(same_rows(rows, first_rows), "sweep rows differ between iterations");
        return seconds;
    };

    // Untraced loop (the end-to-end numbers; in a traced run, the baseline
    // for the tracing overhead), then the traced loop and replay.
    const double budget = config.trace ? config.seconds / 2 : config.seconds;
    tracer.set_enabled(false);
    const double wall_s = closed_loop(tracer, budget, 3, iteration).seconds;
    tracer.set_enabled(config.trace);
    const Timed traced = config.trace ? closed_loop(tracer, budget, 3, iteration) : Timed{};

    const Replay replay = replay_sweep(*protocol, options, tracer);
    const SpanTable replay_spans = tracer.take();
    report.check(replay.failed_trials == 0, "a replayed trial did not converge to output 0");
    report.check(same_rows(replay.rows, first_rows), "sweep rows differ from the serial replay");

    if (!config.trace) {
        report.set("setup_s", setup.seconds);
        report.set("wall_s", wall_s);
        report.set("trials_per_s", static_cast<double>(trials) / wall_s);
        report.set("fired_per_s", static_cast<double>(replay.fired) / wall_s);
        report.set("candidates_per_s", 1.0 / wall_s);
        report.set("peak_rss_mb", peak_rss_mb());
        return;
    }
    const double workers = options.parallelism;
    const double run_s = replay_spans.at("sim.run").total_s;
    const double ctor_s = replay_spans.at("sim.ctor").total_s;
    report.set("protocols.build_s", setup.spans.at("protocols.build").total_s);
    report.set("traps.setup_s", replay.trap_setup_s);
    report.set("sim.ctor_s", ctor_s);
    report.set("sim.run_s", run_s);
    report.set("sim.run_calls", static_cast<double>(replay_spans.at("sim.run").count));
    report.set("sim.fired", static_cast<double>(replay.fired));
    report.set("sim.interactions", static_cast<double>(replay.interactions));
    report.set("sim.fired_per_s", static_cast<double>(replay.fired) / run_s);
    report.set("sim.trial_overhead_ms", 1e3 * median(replay.smallest_run_s));
    report.set("experiment.workers", workers);
    report.set("experiment.pool_efficiency", run_s / (workers * wall_s));
    report.set("experiment.idle_s", workers * (wall_s - ctor_s) - run_s);
    report.set("trace.overhead_s", traced.seconds - wall_s);
    report.set("trace.accounted_s", accounted_seconds(traced.spans));
    report.set("failed_ratio", ratio(static_cast<double>(report.failed),
                                     static_cast<double>(report.attempted)));
    // Self times and counts: one set-up, the median traced iteration, and
    // the serial replay.
    SpanTable spans = setup.spans;
    merge_spans(spans, traced.spans);
    merge_spans(spans, replay_spans);
    report.set_spans(spans);
}

}  // namespace e2e
