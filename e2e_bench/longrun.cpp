// longrun_epoch: the `protocol_tool longrun` loop driven through the
// library, in StepMode::epoch at population 2^40 on
// double_exp_threshold(13) (|Q| = 8195), loaded the way the CLI loads it
// (format_protocol, then parse_protocol).
//
// Timed iteration: a run_batch restart loop up to a fixed interaction
// budget, a CheckpointHook writing into a fresh CheckpointDir at a fixed
// cadence, a final snapshot, and one load_latest.  Every iteration replays
// the same seed, so every iteration must end in the same digest.
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "bench.hpp"
#include "core/protocol_parser.hpp"
#include "protocols/families.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"

namespace e2e {

namespace {

constexpr ppsc::AgentCount kPopulation = ppsc::AgentCount{1} << 40;
constexpr std::uint64_t kBudget = 500'000'000'000;        // interactions per iteration
constexpr std::uint64_t kCheckpointEvery = kBudget / 20;  // ~20 snapshots per iteration
constexpr std::size_t kKeepLast = 3;

/// Removes an iteration's checkpoint directory when the iteration ends,
/// whether it returns or throws.
struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
    }
};

struct Outcome {
    std::uint64_t interactions = 0;
    std::uint64_t fired = 0;
    std::uint64_t restarts = 0;
    std::uint64_t batch_calls = 0;
    std::uint64_t rng_state = 0;
    std::uint64_t digest = 0;
    std::uint64_t writes = 0;
    std::uint64_t write_failures = 0;
    std::uint64_t bytes = 0;
    ppsc::EpochStats epoch;

    bool same_trajectory(const Outcome& other) const {
        return interactions == other.interactions && fired == other.fired &&
               restarts == other.restarts && rng_state == other.rng_state &&
               digest == other.digest && writes == other.writes;
    }
};

}  // namespace

void run_longrun_epoch(const RunConfig& config, Tracer& tracer, Report& report) {
    if (config.scratch.empty()) throw std::invalid_argument("longrun_epoch needs --scratch");
    const std::vector<std::string> family_args = {"13"};
    std::optional<ppsc::Protocol> protocol;
    std::unique_ptr<ppsc::Simulator> simulator;
    std::size_t text_bytes = 0;
    tracer.set_enabled(config.trace);
    const Timed setup = timed_setup(tracer, 5, [&](bool keep) {
        std::optional<ppsc::Protocol> built;
        {
            Span span(tracer, "protocols.build");
            built.emplace(ppsc::protocols::build_family("double_exp", family_args));
        }
        std::string text;
        {
            Span span(tracer, "core.format");
            text = ppsc::format_protocol(*built);
        }
        built.reset();
        std::optional<ppsc::Protocol> parsed;
        {
            Span span(tracer, "core.parse");
            parsed.emplace(ppsc::parse_protocol(text));
        }
        std::unique_ptr<ppsc::Simulator> sim;
        {
            Span span(tracer, "sim.ctor");
            sim = std::make_unique<ppsc::Simulator>(*parsed);
        }
        if (keep) {
            text_bytes = text.size();
            protocol = std::move(parsed);
            simulator = std::move(sim);
        }
    });
    const std::uint64_t fingerprint = ppsc::protocol_fingerprint(*protocol);
    const std::uint64_t seed = derive_seed(config.seed, 0x10c6);

    std::optional<Outcome> first;
    Outcome last;
    const auto iteration = [&](std::size_t index) {
        const std::string dir_path =
            (std::filesystem::path(config.scratch) / ("iter-" + std::to_string(index))).string();
        const RemoveOnExit cleanup{dir_path};
        simulator->reset_epoch_stats();
        const auto start = Clock::now();
        Outcome out;
        ppsc::CheckpointDir dir(dir_path, kKeepLast);
        ppsc::Config state = protocol->initial_config(kPopulation);
        ppsc::Rng rng(seed);
        const auto snapshot = [&](const ppsc::Config& at, std::uint64_t rng_state,
                                  std::uint64_t interactions, std::uint64_t fired) {
            ppsc::Checkpoint checkpoint;
            checkpoint.fingerprint = fingerprint;
            checkpoint.config = at;
            checkpoint.rng_state = rng_state;
            checkpoint.interactions = interactions;
            checkpoint.fired = fired;
            checkpoint.restarts = out.restarts;
            std::string path;
            ppsc::CheckpointError error;
            {
                Span span(tracer, "checkpoint.write");
                error = dir.write(checkpoint, &path);
            }
            ++out.writes;
            if (error != ppsc::CheckpointError::none) {
                ++out.write_failures;
            } else if (tracer.enabled()) {
                out.bytes += std::filesystem::file_size(path);
            }
        };
        while (out.interactions < kBudget) {
            ppsc::CheckpointHook hook;
            hook.every = kCheckpointEvery;
            hook.callback = [&](const ppsc::CheckpointTick& tick) {
                snapshot(tick.config, tick.rng_state, out.interactions + tick.interactions,
                         out.fired + tick.fired);
                return true;
            };
            std::uint64_t fired_in_call = 0, got = 0;
            {
                Span span(tracer, "sim.batch");
                got = simulator->run_batch(state, rng, kBudget - out.interactions, false, &hook,
                                           &fired_in_call, ppsc::StepMode::epoch);
            }
            ++out.batch_calls;
            out.interactions += got;
            out.fired += fired_in_call;
            if (out.interactions >= kBudget || got == 0) break;
            // Silent before the budget: restart from IC, as the CLI does.
            ++out.restarts;
            state = protocol->initial_config(kPopulation);
        }
        snapshot(state, rng.state(), out.interactions, out.fired);
        ppsc::CheckpointDir::Latest latest;
        {
            Span span(tracer, "checkpoint.load");
            latest = dir.load_latest(fingerprint);
        }
        const double seconds = seconds_since(start);

        out.rng_state = rng.state();
        out.digest = ppsc::config_digest(state);
        out.epoch = simulator->epoch_stats();
        report.attempted += out.writes;
        report.failed += out.write_failures;
        report.check(state.size() == kPopulation, "configuration lost agents");
        report.check(out.interactions == kBudget, "interactions differ from the budget");
        report.check(out.epoch.epoch_fired + out.epoch.fallback_fired == out.fired,
                     "epoch-fired + fallback-fired differs from fired");
        report.check(latest.checkpoint.has_value() && latest.rejected.empty() &&
                         latest.checkpoint->fingerprint == fingerprint &&
                         latest.checkpoint->interactions == out.interactions &&
                         latest.checkpoint->fired == out.fired &&
                         ppsc::config_digest(latest.checkpoint->config) == out.digest,
                     "the last snapshot does not load back to the final state");
        if (!first) first = out;
        report.check(out.same_trajectory(*first), "iterations with one seed differ");
        last = out;
        return seconds;
    };

    const double budget = config.trace ? config.seconds / 2 : config.seconds;
    tracer.set_enabled(false);
    const double wall_s = closed_loop(tracer, budget, 3, iteration).seconds;
    if (!config.trace) {
        report.set("setup_s", setup.seconds);
        report.set("wall_s", wall_s);
        report.set("trials_per_s", static_cast<double>(last.restarts + 1) / wall_s);
        report.set("fired_per_s", static_cast<double>(last.fired) / wall_s);
        report.set("candidates_per_s", 1.0 / wall_s);
        report.set("peak_rss_mb", peak_rss_mb());
        return;
    }
    tracer.set_enabled(true);
    const Timed traced = closed_loop(tracer, budget, 3, iteration);
    const SpanTable& spans = traced.spans;
    const auto& batch = spans.at("sim.batch");
    const auto& write = spans.at("checkpoint.write");
    report.set("protocols.build_s", setup.spans.at("protocols.build").total_s);
    report.set("core.format_s", setup.spans.at("core.format").total_s);
    report.set("core.parse_s", setup.spans.at("core.parse").total_s);
    report.set("core.parse_bytes", static_cast<double>(text_bytes));
    report.set("traps.setup_s", simulator->trap_setup_seconds());
    report.set("sim.ctor_s", setup.spans.at("sim.ctor").total_s);
    // run_batch's own time excludes the checkpoint writes its hook makes.
    report.set("sim.batch_s", batch.self_s());
    report.set("sim.batch_calls", static_cast<double>(last.batch_calls));
    report.set("sim.restarts", static_cast<double>(last.restarts));
    report.set("sim.fired", static_cast<double>(last.fired));
    report.set("sim.interactions", static_cast<double>(last.interactions));
    report.set("sim.fired_per_s", ratio(static_cast<double>(last.fired), batch.self_s()));
    const ppsc::EpochStats& epoch = last.epoch;
    report.set("epoch.epochs", static_cast<double>(epoch.epochs));
    report.set("epoch.fired", static_cast<double>(epoch.epoch_fired));
    report.set("epoch.fallback_fired", static_cast<double>(epoch.fallback_fired));
    report.set("epoch.rejected_draws", static_cast<double>(epoch.rejected_draws));
    report.set("epoch.share", ratio(static_cast<double>(epoch.epoch_fired),
                                    static_cast<double>(last.fired)));
    report.set("epoch.reject_ratio",
               ratio(static_cast<double>(epoch.rejected_draws),
                     static_cast<double>(epoch.epochs + epoch.rejected_draws)));
    report.set("epoch.fired_per_epoch", ratio(static_cast<double>(epoch.epoch_fired),
                                              static_cast<double>(epoch.epochs)));
    report.set("checkpoint.writes", static_cast<double>(last.writes));
    report.set("checkpoint.write_s", write.total_s);
    report.set("checkpoint.bytes", static_cast<double>(last.bytes));
    report.set("checkpoint.write_failures", static_cast<double>(last.write_failures));
    report.set("checkpoint.load_s", spans.at("checkpoint.load").total_s);
    report.set("trace.overhead_s", traced.seconds - wall_s);
    report.set("trace.accounted_s", accounted_seconds(spans));
    report.set("failed_ratio", ratio(static_cast<double>(report.failed),
                                     static_cast<double>(report.attempted)));
    SpanTable all = setup.spans;
    merge_spans(all, spans);
    report.set_spans(all);
}

}  // namespace e2e
