// protocol_tool — drive any protocol from a text file.
//
//   $ ./protocol_tool info      <file.pp>
//   $ ./protocol_tool analyze   <file.pp> [--emit-certificates [out]] [--check <certs>]
//   $ ./protocol_tool verify    <file.pp> <eta> [max_input]
//   $ ./protocol_tool simulate  <file.pp> <population> [seed]
//   $ ./protocol_tool longrun   <file.pp> <population> <interactions> [seed]
//   $ ./protocol_tool sweep     <file.pp> <eta> <pop1,pop2,...> [runs] [seed]
//   $ ./protocol_tool dot       <file.pp>
//   $ ./protocol_tool family    <name> [params]  (prints a built-in family)
//   $ ./protocol_tool demo                       (prints a sample file)
//   $ ./protocol_tool help                       (full usage, all families)
//
// The text format is documented in src/core/protocol_parser.hpp; `demo`
// emits a ready-to-use threshold-3 protocol, so
//
//   $ ./protocol_tool demo > t3.pp
//   $ ./protocol_tool verify t3.pp 3
//
// is a complete round trip.  `family` does the same for every registered
// protocol family (see src/protocols/families.hpp — `help` lists them all
// with their parameter ranges), e.g.
//
//   $ ./protocol_tool family double_exp 2 > d2.pp
//   $ ./protocol_tool verify d2.pp 16
//
// `longrun` and `sweep` are the durable run surfaces, and share one policy
// (sim/checkpoint.hpp, RunCheckpoints).  With --checkpoint-dir they
// snapshot (config, rng, counters) crash-safely (atomic rename,
// keep-last-K rotation) at the first fired step at or past every
// --checkpoint-every mark of the run — longrun's marks count its whole
// run, restarts from IC included, and a sweep's each trial.  A snapshot
// that cannot be written is an error (exit 1).  SIGTERM/SIGINT triggers a
// graceful stop at the next mark, a directory or not (so without one
// --checkpoint-every is the stop-check cadence): finish the current step,
// write a final checkpoint when there is a directory, and exit 0.
// --resume (longrun) / re-running with the same flags (sweep) continues
// the trajectory byte-identically — a resumed run prints the same final
// digest line, and writes the same snapshots, as an uninterrupted one.  Both refuse a snapshot of another
// population or seed with exit 1 before anything is written.  Every other
// command rejects the checkpoint flags, sweep rejects --resume and
// --die-after; --checkpoint-keep, --resume and --die-after need
// --checkpoint-dir; and every command rejects positional arguments past
// its usage line:
//
//   $ ./protocol_tool family double_exp 3 > d3.pp
//   $ ./protocol_tool longrun d3.pp 512 100000000 7 --checkpoint-dir ck
//         --checkpoint-every 1000000   (one command line)
//   ^C   (or SIGKILL — the rotation keeps the last snapshots)
//   $ ./protocol_tool longrun d3.pp 512 100000000 7 --checkpoint-dir ck --resume
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/checker.hpp"
#include "core/protocol_parser.hpp"
#include "protocols/families.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "verify/verifier.hpp"

using namespace ppsc;

namespace {

constexpr const char* kDemo = R"(# x >= 3, collector style
state v0 0
state v1 0
state v2 0
state T 1
input x -> v1
trans v1 v1 -> v0 v2
trans v2 v1 -> T T
trans v2 v2 -> T T
trans T v0 -> T T
trans T v1 -> T T
trans T v2 -> T T
)";

void print_usage(const char* argv0, std::FILE* out) {
    std::fprintf(out,
                 "usage: %s <command> [args]\n"
                 "\n"
                 "commands:\n"
                 "  info     <file.pp>                     print states/inputs/transitions\n"
                 "  analyze  <file.pp> [--emit-certificates [out]] [--check <certs>]\n"
                 "                                         static analysis: invariant +\n"
                 "                                         closure certificates, dead code,\n"
                 "                                         consensus refutation, lints\n"
                 "                                         (file:line diagnostics; --check\n"
                 "                                         re-verifies a certificate file)\n"
                 "  verify   <file.pp> <eta> [max_input]   exhaustively check x >= eta\n"
                 "  simulate <file.pp> <population> [seed] one randomized run from IC\n"
                 "  longrun  <file.pp> <population> <interactions> [seed]\n"
                 "                                         checkpointed throughput run\n"
                 "  sweep    <file.pp> <eta> <pop1,pop2,...> [runs] [seed]\n"
                 "                                         checkpointed convergence sweep\n"
                 "  dot      <file.pp>                     GraphViz rendering\n"
                 "  family   <name> [params]               print a built-in family as .pp\n"
                 "  demo                                   print a sample .pp file\n"
                 "  help                                   this message\n"
                 "\n"
                 "checkpoint flags (longrun, sweep; other commands reject them):\n"
                 "  --checkpoint-dir <dir>    crash-safe rotation directory, needed by the\n"
                 "                            flags below but --checkpoint-every; a failed\n"
                 "                            write exits 1\n"
                 "  --checkpoint-every <n>    interactions between snapshots and stop checks\n"
                 "                            (default 10^8)\n"
                 "  --checkpoint-keep <k>     rotation depth keep-last-K (default 3)\n"
                 "  --resume                  longrun only: restore the newest valid snapshot\n"
                 "                            (sweep resumes automatically per trial)\n"
                 "  --die-after <n>           longrun only, testing: SIGKILL self at the\n"
                 "                            first snapshot at/past n interactions\n"
                 "SIGTERM/SIGINT stop gracefully at the next --checkpoint-every mark, a\n"
                 "directory or not: write a final checkpoint if any, exit 0.\n"
                 "\n"
                 "families (every registered family; parameters and ranges):\n%s",
                 argv0, protocols::family_usage().c_str());
}

std::string read_text(const char* path) {
    std::ifstream file(path);
    if (!file) throw std::invalid_argument(std::string("cannot open ") + path);
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
}

/// Strict numeric argument parsing: the whole token must be a number in
/// [min, max] — "12x", "", and out-of-range values all get a one-line
/// diagnostic instead of strtoll's silent 0.
// ppsc-lint: validated-parser (end pointer, full token, ERANGE, and range checked below)
std::int64_t parse_int(const char* what, const char* text, std::int64_t min, std::int64_t max) {
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || value < min || value > max) {
        std::ostringstream message;
        message << what << " must be an integer in [" << min << ", " << max << "], got '"
                << text << "'";
        throw std::invalid_argument(message.str());
    }
    return value;
}

std::uint64_t parse_u64(const char* what, const char* text) {
    return static_cast<std::uint64_t>(
        parse_int(what, text, 0, std::numeric_limits<std::int64_t>::max()));
}

std::vector<AgentCount> parse_population_list(const char* text) {
    std::vector<AgentCount> populations;
    std::stringstream stream(text);
    std::string token;
    while (std::getline(stream, token, ','))
        populations.push_back(parse_int("population", token.c_str(), 2,
                                        std::numeric_limits<std::int64_t>::max()));
    if (populations.empty())
        throw std::invalid_argument("population list must name at least one population");
    return populations;
}

/// Graceful-shutdown flag: SIGTERM/SIGINT set it (std::atomic<bool> stores
/// are async-signal-safe).  A second SIGINT falls back to the default
/// disposition so a stuck process can still be killed with Ctrl-C Ctrl-C;
/// SIGTERM stays handled, because senders such as timeout(1) deliver it to
/// the process and then to its process group.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int signum) {
    g_stop.store(true);
    if (signum == SIGINT) std::signal(SIGINT, SIG_DFL);
}

void install_stop_handlers() {
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
}

struct CheckpointFlags {
    std::string dir;
    std::uint64_t every = kDefaultCheckpointEvery;
    std::size_t keep = 3;
    bool resume = false;
    std::uint64_t die_after = 0;  // 0 = disabled
};

/// Extracts the checkpoint flags from argv (erasing them), leaving the
/// positional arguments in place.  A flag `command` would ignore is an
/// error: only longrun and sweep checkpoint, sweep resumes per trial on
/// its own (no --resume) and has no crash injection (no --die-after), and
/// the rotation depth, resume and crash injection need --checkpoint-dir
/// (without one, --checkpoint-every is still the stop-check cadence).
CheckpointFlags extract_checkpoint_flags(std::string_view command,
                                         std::vector<const char*>& args) {
    const auto takes = [command](std::string_view flag) {
        return command == "longrun" ||
               (command == "sweep" && flag != "--resume" && flag != "--die-after");
    };
    CheckpointFlags flags;
    std::vector<const char*> positional;
    std::string_view needs_dir;  // the first flag given that needs --checkpoint-dir
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string_view arg = args[i];
        if (arg.starts_with("--") && !takes(arg))
            throw std::invalid_argument(std::string(command) + " does not take " +
                                        std::string(arg));
        if ((arg == "--checkpoint-keep" || arg == "--resume" || arg == "--die-after") &&
            needs_dir.empty())
            needs_dir = arg;
        const auto value = [&](const char* name) -> const char* {
            if (++i >= args.size())
                throw std::invalid_argument(std::string(name) + " needs a value");
            return args[i];
        };
        if (arg == "--checkpoint-dir") {
            flags.dir = value("--checkpoint-dir");
        } else if (arg == "--checkpoint-every") {
            flags.every = parse_u64("--checkpoint-every", value("--checkpoint-every"));
            if (flags.every == 0)
                throw std::invalid_argument("--checkpoint-every must be positive");
        } else if (arg == "--checkpoint-keep") {
            flags.keep = static_cast<std::size_t>(
                parse_int("--checkpoint-keep", value("--checkpoint-keep"), 1, 1 << 20));
        } else if (arg == "--resume") {
            flags.resume = true;
        } else if (arg == "--die-after") {
            flags.die_after = parse_u64("--die-after", value("--die-after"));
        } else if (arg.starts_with("--")) {
            throw std::invalid_argument("unknown flag '" + std::string(arg) + "'");
        } else {
            positional.push_back(args[i]);
        }
    }
    if (flags.dir.empty() && !needs_dir.empty())
        throw std::invalid_argument(std::string(needs_dir) + " needs --checkpoint-dir");
    args = std::move(positional);
    return flags;
}

/// How many positional arguments a file command's usage line names, the
/// file included (no limit for an unknown command, which fails later).
std::size_t max_positional(std::string_view command) {
    if (command == "info" || command == "dot") return 1;
    if (command == "verify" || command == "simulate") return 3;
    if (command == "longrun") return 4;
    if (command == "sweep") return 5;
    return std::numeric_limits<std::size_t>::max();
}

/// The durable throughput run: drives one Simulator::Trajectory to an
/// interaction budget (restarting it from IC whenever it goes silent, like
/// the E11 sweep), snapshotting every ≥ N interactions of the whole run.
/// The final line is a digest of (interactions, fired, restarts, rng
/// state, config) — a killed-and-resumed run prints exactly the
/// uninterrupted run's line and writes the same snapshots.
int run_longrun(const Protocol& protocol, AgentCount population, std::uint64_t budget,
                std::uint64_t seed, const CheckpointFlags& flags) {
    const Simulator simulator(protocol);
    Config config = protocol.initial_config(population);
    Rng rng(seed);
    RunTotals start;

    std::optional<RunCheckpoints> checkpoints;
    if (!flags.dir.empty())
        checkpoints.emplace(flags.dir, flags.keep, protocol_fingerprint(protocol), seed);
    if (flags.resume) {
        CheckpointDir::Latest latest = checkpoints->resume_point(config);
        for (const std::string& rejection : latest.rejected)
            std::fprintf(stderr, "resume: skipping %s\n", rejection.c_str());
        if (latest.checkpoint) {
            config = std::move(latest.checkpoint->config);
            rng.set_state(latest.checkpoint->rng_state);
            start = {latest.checkpoint->interactions, latest.checkpoint->fired,
                     latest.checkpoint->restarts};
            std::printf("resumed from %s at %llu interactions\n", latest.path.c_str(),
                        static_cast<unsigned long long>(start.interactions));
        } else {
            std::printf("no valid checkpoint in %s — starting fresh\n", flags.dir.c_str());
        }
    }
    Simulator::Trajectory trajectory(simulator, std::move(config), start);

    install_stop_handlers();
    // The hook reads the stop flag with or without a directory, so a
    // signal stops the run within one cadence interval either way.
    const CheckpointHook hook{flags.every, [&](const CheckpointTick& tick) {
        if (checkpoints) checkpoints->write(tick);
        if (flags.die_after != 0 && tick.interactions >= flags.die_after) {
            // Deterministic crash injection for the CI smoke: a real
            // SIGKILL — no cleanup, no final checkpoint, the rotation
            // is all that survives.
            std::raise(SIGKILL);
        }
        return !g_stop.load();
    }};
    while (trajectory.interactions() < budget && !g_stop.load()) {
        const std::uint64_t got =
            trajectory.run_batch(rng, budget - trajectory.interactions(), false, &hook);
        if (trajectory.interactions() >= budget || g_stop.load()) break;
        if (got == 0) {
            std::printf("configuration is silent from the start — nothing to run\n");
            break;
        }
        // Trajectory went silent before the budget: restart from IC so the
        // run keeps measuring (deterministic — part of the resumable state).
        trajectory.restart(protocol.initial_config(population));
    }

    if (checkpoints)
        checkpoints->write({trajectory.config(), rng.state(), trajectory.interactions(),
                            trajectory.fired(), trajectory.restarts()});
    if (g_stop.load() && checkpoints)
        std::printf("interrupted — final checkpoint written to %s\n", flags.dir.c_str());
    else if (g_stop.load())
        std::printf("interrupted — no checkpoint directory\n");
    std::printf("longrun: interactions=%llu fired=%llu restarts=%llu rng=%016llx digest=%016llx\n",
                static_cast<unsigned long long>(trajectory.interactions()),
                static_cast<unsigned long long>(trajectory.fired()),
                static_cast<unsigned long long>(trajectory.restarts()),
                static_cast<unsigned long long>(rng.state()),
                static_cast<unsigned long long>(config_digest(trajectory.config())));
    return 0;
}

const char* severity_name(analyze::Severity severity) {
    switch (severity) {
        case analyze::Severity::error: return "error";
        case analyze::Severity::warning: return "warning";
        case analyze::Severity::note: return "note";
    }
    return "note";
}

/// `protocol_tool analyze`: run the static analyzer, print machine-readable
/// `file:line: severity [code]: message` diagnostics, self-check the
/// emitted certificates through the independent checker, and optionally
/// write them out (--emit-certificates) or re-verify an external
/// certificate file (--check).  Exit codes: 0 clean, 2 a certificate
/// failed its check.
int run_analyze(const char* path, bool emit, const char* emit_path, const char* check_path) {
    ParseReport parsed;
    const Protocol protocol = parse_protocol(read_text(path), &parsed);
    for (const ParseWarning& warning : parsed.warnings)
        std::printf("%s:%zu: warning [duplicate-rule]: %s\n", path, warning.line,
                    warning.message.c_str());

    const analyze::Analysis analysis = analyze::analyze_protocol(protocol);
    for (const analyze::Diagnostic& d : analysis.diagnostics) {
        std::size_t line = 1;  // a diagnostic about the whole protocol
        if (d.state >= 0) line = parsed.state_line[static_cast<std::size_t>(d.state)];
        if (d.transition >= 0)
            line = parsed.transition_line[static_cast<std::size_t>(d.transition)];
        std::printf("%s:%zu: %s [%s]: %s\n", path, line, severity_name(d.severity),
                    d.code.c_str(), d.message.c_str());
    }

    std::size_t unreachable = 0, dead = 0;
    for (const bool u : analysis.unreachable) unreachable += u;
    for (const bool d : analysis.dead) dead += d;
    const analyze::CheckReport self_check =
        analyze::check_certificates(protocol, analysis.certificates);
    std::printf("analyze: %zu unreachable state%s, %zu dead transition%s, consensus 0 %s, "
                "consensus 1 %s\n",
                unreachable, unreachable == 1 ? "" : "s", dead, dead == 1 ? "" : "s",
                analysis.consensus_refuted[0] ? "refuted" : "possible",
                analysis.consensus_refuted[1] ? "refuted" : "possible");
    std::printf("certificates: %zu emitted, checker %s\n", analysis.certificates.size(),
                self_check.ok ? "accepted all" : self_check.error.c_str());

    if (emit) {
        const std::string formatted = analyze::format_certificates(analysis.certificates);
        if (emit_path != nullptr) {
            std::ofstream out(emit_path);
            if (!out) throw std::invalid_argument(std::string("cannot write ") + emit_path);
            out << formatted;
        } else {
            std::fputs(formatted.c_str(), stdout);
        }
    }
    if (check_path != nullptr) {
        const std::vector<analyze::Certificate> external =
            analyze::parse_certificates(read_text(check_path));
        const analyze::CheckReport report = analyze::check_certificates(protocol, external);
        std::printf("check %s: %zu certificate%s %s\n", check_path, external.size(),
                    external.size() == 1 ? "" : "s",
                    report.ok ? "all valid" : ("REJECTED — " + report.error).c_str());
        if (!report.ok) return 2;
    }
    return self_check.ok ? 0 : 2;
}

int run_sweep(const Protocol& protocol, AgentCount eta, const std::vector<AgentCount>& populations,
              std::uint64_t runs, std::uint64_t seed, const CheckpointFlags& flags) {
    install_stop_handlers();
    ConvergenceSweepOptions options;
    options.runs_per_size = runs;
    options.seed = seed;
    options.checkpoint_dir = flags.dir;
    options.checkpoint_every = flags.every;
    options.checkpoint_keep_last = flags.keep;
    options.stop = &g_stop;
    const auto rows = convergence_sweep(
        protocol, populations, [eta](AgentCount i) { return i >= eta ? 1 : 0; }, options);
    std::printf("%10s %9s %16s %16s %9s\n", "population", "runs", "mean par.time", "stddev",
                "correct");
    for (const ConvergenceRow& row : rows) {
        char runs_column[32];
        std::snprintf(runs_column, sizeof runs_column, "%llu/%llu",
                      static_cast<unsigned long long>(row.converged_runs),
                      static_cast<unsigned long long>(row.runs));
        std::printf("%10lld %9s %16.1f %16.1f %8.0f%%\n", static_cast<long long>(row.population),
                    runs_column, row.mean_parallel_time, row.stddev_parallel_time,
                    100.0 * row.correct_fraction);
    }
    if (g_stop.load() && flags.dir.empty())
        std::printf("interrupted — no checkpoint directory, unfinished trials are lost\n");
    else if (g_stop.load())
        std::printf("interrupted — unfinished trials checkpointed under %s; re-run the same\n"
                    "sweep to resume them\n", flags.dir.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc >= 2 && std::string_view(argv[1]) == "demo") {
        std::fputs(kDemo, stdout);
        return 0;
    }
    if (argc >= 2 && (std::string_view(argv[1]) == "help" ||
                      std::string_view(argv[1]) == "--help" ||
                      std::string_view(argv[1]) == "-h")) {
        print_usage(argv[0], stdout);
        return 0;
    }
    if (argc < 3) {
        print_usage(argv[0], stderr);
        return 1;
    }
    const std::string_view command = argv[1];
    try {
        if (command == "family") {
            const std::vector<std::string> params(argv + 3, argv + argc);
            std::fputs(format_protocol(protocols::build_family(argv[2], params)).c_str(),
                       stdout);
            return 0;
        }
        if (command == "analyze") {
            // analyze has its own flag grammar (no checkpoint flags).
            bool emit = false;
            const char* emit_path = nullptr;
            const char* check_path = nullptr;
            std::vector<const char*> positional;
            for (int i = 2; i < argc; ++i) {
                const std::string_view arg = argv[i];
                if (arg == "--emit-certificates") {
                    emit = true;
                    if (i + 1 < argc && argv[i + 1][0] != '-') emit_path = argv[++i];
                } else if (arg == "--check") {
                    if (++i >= argc) throw std::invalid_argument("--check needs a file");
                    check_path = argv[i];
                } else if (arg.starts_with("--")) {
                    throw std::invalid_argument("unknown flag '" + std::string(arg) + "'");
                } else {
                    positional.push_back(argv[i]);
                }
            }
            if (positional.size() != 1)
                throw std::invalid_argument("analyze needs exactly one <file.pp>");
            return run_analyze(positional[0], emit, emit_path, check_path);
        }
        std::vector<const char*> args(argv + 2, argv + argc);
        const CheckpointFlags flags = extract_checkpoint_flags(command, args);
        if (args.empty()) throw std::invalid_argument("missing <file.pp>");
        if (const std::size_t most = max_positional(command); args.size() > most)
            throw std::invalid_argument(std::string(command) + " takes at most " +
                                        std::to_string(most) + " arguments, got " +
                                        std::to_string(args.size()));
        const Protocol protocol = parse_protocol(read_text(args[0]));
        if (command == "info") {
            std::fputs(protocol.to_text().c_str(), stdout);
        } else if (command == "dot") {
            std::fputs(protocol.to_dot().c_str(), stdout);
        } else if (command == "verify") {
            if (args.size() < 2) {
                std::fprintf(stderr, "verify needs <eta>\n");
                return 1;
            }
            const AgentCount eta = parse_int("eta", args[1], 1, 1ll << 60);
            const AgentCount max_input =
                args.size() > 2 ? parse_int("max_input", args[2], 2, 1ll << 60) : eta + 4;
            const Verifier verifier(protocol);
            const PredicateCheck check =
                verifier.check_predicate(Predicate::x_at_least(eta), 2, max_input);
            std::printf("x >= %lld on inputs 2..%lld: %s (%zu configurations explored)\n",
                        static_cast<long long>(eta), static_cast<long long>(max_input),
                        check.holds ? "CORRECT" : "WRONG", check.total_nodes);
            for (const auto& failure : check.failures) {
                std::printf("  input %lld: %s\n", static_cast<long long>(failure.input[0]),
                            failure.well_specified
                                ? (*failure.computed ? "computes 1" : "computes 0")
                                : "ill-specified");
            }
            return check.holds ? 0 : 2;
        } else if (command == "simulate") {
            if (args.size() < 2) {
                std::fprintf(stderr, "simulate needs <population>\n");
                return 1;
            }
            const AgentCount population =
                parse_int("population", args[1], 2, std::numeric_limits<std::int64_t>::max());
            Rng rng(args.size() > 2 ? parse_u64("seed", args[2]) : 1);
            const Simulator simulator(protocol);
            const SimulationResult result = simulator.run_input(population, rng);
            std::printf("population %lld: %s, output %s, %llu interactions (%.1f parallel)\n",
                        static_cast<long long>(population),
                        result.converged ? "stabilised" : "timeout",
                        result.output ? (*result.output ? "1" : "0") : "mixed",
                        static_cast<unsigned long long>(result.interactions),
                        result.parallel_time);
            std::printf("final: %s\n",
                        result.final_config.to_string(protocol.state_names()).c_str());
        } else if (command == "longrun") {
            if (args.size() < 3) {
                std::fprintf(stderr, "longrun needs <population> <interactions>\n");
                return 1;
            }
            const AgentCount population =
                parse_int("population", args[1], 2, std::numeric_limits<std::int64_t>::max());
            const std::uint64_t budget = parse_u64("interactions", args[2]);
            const std::uint64_t seed = args.size() > 3 ? parse_u64("seed", args[3]) : 1;
            return run_longrun(protocol, population, budget, seed, flags);
        } else if (command == "sweep") {
            if (args.size() < 3) {
                std::fprintf(stderr, "sweep needs <eta> <pop1,pop2,...>\n");
                return 1;
            }
            const AgentCount eta = parse_int("eta", args[1], 1, 1ll << 60);
            const std::vector<AgentCount> populations = parse_population_list(args[2]);
            const std::uint64_t runs = args.size() > 3 ? parse_u64("runs", args[3]) : 20;
            const std::uint64_t seed = args.size() > 4 ? parse_u64("seed", args[4]) : 0x5eed;
            return run_sweep(protocol, eta, populations, runs, seed, flags);
        } else {
            std::fprintf(stderr, "unknown command '%s'; see '%s help'\n", argv[1], argv[0]);
            return 1;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
