// e2e_bench: the end-to-end benchmark of the library.  One process runs one
// workload and prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (untraced) or the per-layer metrics
// (--trace 1).  The line before it is the run's provenance.  Exits 1 when a
// correctness check fails and 2 on a usage error or a build that must not
// report numbers (non-Release, sanitizers).  Usually driven by run.py,
// which builds this binary first.
//
//   e2e_bench --workload sweep_flagship|longrun_epoch|bb_sample
//             [--seed N] [--seconds S] [--trace 0|1] [--scratch DIR]
//             [--git-commit SHA] [--git-dirty 0|1|unknown]
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"

namespace {

struct Args {
    std::string workload;
    e2e::RunConfig run;
    std::string git_commit = "unknown";
    std::string git_dirty = "unknown";
};

std::uint64_t parse_u64(const std::string& text) {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used);
    if (used != text.size() || text.front() == '-') throw std::invalid_argument("bad number " + text);
    return value;
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(flag));
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.run.seed = parse_u64(value);
        } else if (flag == "--seconds") {
            args.run.seconds = static_cast<double>(parse_u64(value));
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
            args.run.trace = value == "1";
        } else if (flag == "--scratch") {
            args.run.scratch = value;
        } else if (flag == "--git-commit") {
            args.git_commit = value;
        } else if (flag == "--git-dirty") {
            args.git_dirty = value;
        } else {
            throw std::invalid_argument("unknown flag " + std::string(flag));
        }
    }
    if (args.workload.empty()) throw std::invalid_argument("--workload is required");
    if (args.run.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
    return args;
}

std::string cpu_model() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string json_string(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

/// Why this build must not report numbers, or empty when it may.
std::string unfit_build_reason() {
    const std::string flags = std::string(E2E_CXX_FLAGS) + " " + E2E_CXX_FLAGS_BUILD_TYPE;
    if (std::string_view(E2E_BUILD_TYPE) != "Release")
        return std::string("build type is '") + E2E_BUILD_TYPE + "', not Release";
    if (std::string_view(E2E_SANITIZE) != "" || flags.find("-fsanitize") != std::string::npos)
        return "built with sanitizers";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with sanitizers";
#endif
#ifndef NDEBUG
    return "built without NDEBUG (assertions on)";
#endif
    return {};
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    try {
        args = parse_args(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 2;
    }
    if (const std::string reason = unfit_build_reason(); !reason.empty()) {
        std::fprintf(stderr, "e2e_bench: refusing to report numbers: %s\n", reason.c_str());
        return 2;
    }

    e2e::Tracer tracer;
    e2e::Report report;
    try {
        if (args.workload == "sweep_flagship") {
            e2e::run_sweep_flagship(args.run, tracer, report);
        } else if (args.workload == "longrun_epoch") {
            e2e::run_longrun_epoch(args.run, tracer, report);
        } else if (args.workload == "bb_sample") {
            e2e::run_bb_sample(args.run, tracer, report);
        } else {
            std::fprintf(stderr, "e2e_bench: unknown workload %s\n", args.workload.c_str());
            return 2;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_bench: %s failed: %s\n", args.workload.c_str(), e.what());
        return 1;
    }

    std::printf("provenance: {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                "\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, \"flags\": %s, "
                "\"build_type\": %s, \"git_commit\": %s, \"git_dirty\": %s}\n",
                json_string(args.workload).c_str(),
                static_cast<unsigned long long>(args.run.seed), args.run.seconds,
                args.run.trace ? 1 : 0, std::thread::hardware_concurrency(),
                json_string(cpu_model()).c_str(), json_string(E2E_COMPILER).c_str(),
                json_string(std::string(E2E_CXX_FLAGS) + " " + E2E_CXX_FLAGS_BUILD_TYPE).c_str(),
                json_string(E2E_BUILD_TYPE).c_str(), json_string(args.git_commit).c_str(),
                json_string(args.git_dirty).c_str());
    for (const std::string& error : report.errors())
        std::fprintf(stderr, "e2e_bench: CHECK FAILED: %s\n", error.c_str());
    try {
        std::printf("%s\n", report.result_json(args.run.trace).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 1;
    }
    return report.correct() ? 0 : 1;
}
