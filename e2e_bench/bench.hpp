// Shared plumbing of the end-to-end benchmark: the span tracer, the metric
// report, and the timing helpers every workload uses.
//
// Spans wrap calls into one layer's public functions from the benchmark's
// own code (the library itself is not instrumented).  A span's name is
// "<layer>.<call>"; its self time is its duration minus the part of it its
// child spans cover.  Spans and counts are held in memory and written out
// with the result when the run ends.  A disabled tracer reads no clock, so
// untraced runs time only whole iterations.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
double median(std::vector<double> values);

/// num / den, or 0 when den is 0 (a layer that did no work).
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct SpanStats {
    double total_s = 0.0;  ///< wall time inside spans of this name
    double child_s = 0.0;  ///< part of total_s covered by child spans
    std::uint64_t count = 0;

    double self_s() const noexcept { return total_s - child_s; }
};

using SpanTable = std::map<std::string, SpanStats>;

class Tracer {
public:
    bool enabled() const noexcept { return enabled_; }
    void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

    void open(const char* name);
    /// Closes the innermost span and returns its duration in seconds.
    double close();

    /// Takes the spans recorded since the last take (all spans must be closed).
    SpanTable take();

private:
    struct Open {
        const char* name;
        Clock::time_point start;
        double child_s;
    };
    bool enabled_ = false;
    std::vector<Open> stack_;
    SpanTable table_;
};

/// RAII span; free when the tracer is disabled.
class Span {
public:
    Span(Tracer& tracer, const char* name) : tracer_(tracer.enabled() ? &tracer : nullptr) {
        if (tracer_ != nullptr) tracer_->open(name);
    }
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span early; returns its duration (0 when tracing is off).
    double stop() {
        if (tracer_ == nullptr) return 0.0;
        const double seconds = tracer_->close();
        tracer_ = nullptr;
        return seconds;
    }

private:
    Tracer* tracer_;
};

/// Adds every span of `from` into `into`.
void merge_spans(SpanTable& into, const SpanTable& from);

/// Per-name median of several span tables (count taken from the first;
/// every table must hold the same names and counts).
SpanTable median_spans(const std::vector<SpanTable>& tables);

/// Sum of the self times of every span in `table`: the traced time the
/// layers account for.
double accounted_seconds(const SpanTable& table);

/// Metric values of one run plus the correctness verdict.  Only names in
/// the benchmark's fixed metric tables are accepted (report.cpp), so a
/// typo fails loudly instead of silently adding a metric.
class Report {
public:
    void set(std::string_view name, double value);
    /// Fills self.<layer>_s and count.<span> from a span table.
    void set_spans(const SpanTable& table);

    /// Records a correctness failure (the run then reports correct=false).
    void check(bool ok, const std::string& what);
    bool correct() const noexcept { return errors_.empty(); }
    const std::vector<std::string>& errors() const noexcept { return errors_; }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /// The final result line: end-to-end metrics (trace off) or per-layer
    /// metrics (trace on).  Throws if an end-to-end metric was never set.
    std::string result_json(bool trace) const;

private:
    std::map<std::string, double, std::less<>> values_;
    std::vector<std::string> errors_;
};

/// Everything a workload needs from the command line.
struct RunConfig {
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string scratch;  ///< per-run directory for checkpoint files
};

/// A workload-specific 64-bit seed derived from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Worker threads the sweep uses: min(4, hardware threads).
unsigned sweep_workers();

/// Median time of repeated work, and the median spans of one repetition
/// (empty when the tracer is off).
struct Timed {
    double seconds = 0.0;
    SpanTable spans;
};

/// Runs `setup(keep)` `reps` times; the workload keeps what the last
/// repetition (keep == true) built.
template <typename F>
Timed timed_setup(Tracer& tracer, int reps, F&& setup) {
    std::vector<double> times;
    std::vector<SpanTable> spans;
    for (int i = 0; i < reps; ++i) {
        const auto start = Clock::now();
        setup(i + 1 == reps);
        times.push_back(seconds_since(start));
        if (tracer.enabled()) spans.push_back(tracer.take());
    }
    return {median(times), spans.empty() ? SpanTable{} : median_spans(spans)};
}

/// Closed loop with one client: runs `iteration(i)` (which returns its own
/// timed seconds) back to back until one more would overrun `seconds`,
/// with at least `min_iters` iterations.
template <typename F>
Timed closed_loop(Tracer& tracer, double seconds, int min_iters, F&& iteration) {
    std::vector<double> times;
    std::vector<SpanTable> spans;
    const auto start = Clock::now();
    for (;;) {
        times.push_back(iteration(times.size()));
        if (tracer.enabled()) spans.push_back(tracer.take());
        if (static_cast<int>(times.size()) < min_iters) continue;
        const double longest = *std::max_element(times.begin(), times.end());
        if (seconds_since(start) + longest > seconds) break;
    }
    std::fprintf(stderr, "e2e_bench: %s loop: %zu iterations, min %.4f median %.4f max %.4f s\n",
                 tracer.enabled() ? "traced" : "untraced", times.size(),
                 *std::min_element(times.begin(), times.end()), median(times),
                 *std::max_element(times.begin(), times.end()));
    return {median(times), spans.empty() ? SpanTable{} : median_spans(spans)};
}

void run_sweep_flagship(const RunConfig& config, Tracer& tracer, Report& report);
void run_longrun_epoch(const RunConfig& config, Tracer& tracer, Report& report);
void run_bb_sample(const RunConfig& config, Tracer& tracer, Report& report);

}  // namespace e2e
