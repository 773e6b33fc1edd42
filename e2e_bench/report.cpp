#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "support/rng.hpp"

namespace e2e {

namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

// The two metric tables of BENCHMARK.json, in its order.  Every run prints
// every metric of its table; per-layer metrics a workload does not touch
// read 0 (the layer did no work there).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"trials_per_s", "1/s"},   {"fired_per_s", "1/s"},
    {"candidates_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"protocols.build_s", "s"},
    {"core.format_s", "s"},
    {"core.parse_s", "s"},
    {"core.parse_bytes", "bytes"},
    {"traps.setup_s", "s"},
    {"sim.ctor_s", "s"},
    {"sim.run_s", "s"},
    {"sim.run_calls", "count"},
    {"sim.fired", "count"},
    {"sim.interactions", "count"},
    {"sim.fired_per_s", "1/s"},
    {"sim.trial_overhead_ms", "ms"},
    {"sim.batch_s", "s"},
    {"sim.batch_calls", "count"},
    {"sim.restarts", "count"},
    {"epoch.epochs", "count"},
    {"epoch.fired", "count"},
    {"epoch.fallback_fired", "count"},
    {"epoch.rejected_draws", "count"},
    {"epoch.share", "ratio"},
    {"epoch.reject_ratio", "ratio"},
    {"epoch.fired_per_epoch", "count"},
    {"checkpoint.writes", "count"},
    {"checkpoint.write_s", "s"},
    {"checkpoint.bytes", "bytes"},
    {"checkpoint.write_failures", "count"},
    {"checkpoint.load_s", "s"},
    {"experiment.workers", "count"},
    {"experiment.pool_efficiency", "ratio"},
    {"experiment.idle_s", "s"},
    {"search.enumerated", "count"},
    {"search.canonical", "count"},
    {"search.canonical_ratio", "ratio"},
    {"search.canonicalize_s", "s"},
    {"search.threshold_protocols", "count"},
    {"search.budget_skipped", "count"},
    {"reach.explore_s", "s"},
    {"reach.graphs", "count"},
    {"reach.nodes", "count"},
    {"reach.edges", "count"},
    {"reach.nodes_per_s", "1/s"},
    {"reach.scc_s", "s"},
    {"verify.inputs_per_candidate", "ratio"},
    {"analyze.s", "s"},
    {"analyze.refuted", "count"},
    {"analyze.refuted_ratio", "ratio"},
    {"screen.s", "s"},
    {"screen.refuted", "count"},
    {"screen.refuted_ratio", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.accounted_s", "s"},
    {"failed_ratio", "ratio"},
    {"self.protocols_s", "s"},
    {"self.core_s", "s"},
    {"self.sim_s", "s"},
    {"self.checkpoint_s", "s"},
    {"self.experiment_s", "s"},
    {"self.search_s", "s"},
    {"self.analyze_s", "s"},
    {"self.screen_s", "s"},
    {"self.reach_s", "s"},
    {"count.protocols.build", "count"},
    {"count.core.format", "count"},
    {"count.core.parse", "count"},
    {"count.core.build", "count"},
    {"count.sim.ctor", "count"},
    {"count.sim.run", "count"},
    {"count.sim.batch", "count"},
    {"count.checkpoint.write", "count"},
    {"count.checkpoint.load", "count"},
    {"count.experiment.sweep", "count"},
    {"count.search.busy_beaver", "count"},
    {"count.search.canonicalize", "count"},
    {"count.analyze.protocol", "count"},
    {"count.screen.refutes", "count"},
    {"count.reach.explore", "count"},
    {"count.reach.scc", "count"},
};

bool known_metric(std::string_view name) {
    for (const MetricDef& def : kEndToEnd)
        if (name == def.name) return true;
    for (const MetricDef& def : kPerLayer)
        if (name == def.name) return true;
    return false;
}

std::string json_number(double value) {
    if (!std::isfinite(value)) throw std::logic_error("non-finite metric value");
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

}  // namespace

double median(std::vector<double> values) {
    if (values.empty()) throw std::logic_error("median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

void Tracer::open(const char* name) { stack_.push_back({name, Clock::now(), 0.0}); }

double Tracer::close() {
    const Open span = stack_.back();
    stack_.pop_back();
    const double seconds = seconds_since(span.start);
    SpanStats& stats = table_[span.name];
    stats.total_s += seconds;
    stats.child_s += span.child_s;
    ++stats.count;
    if (!stack_.empty()) stack_.back().child_s += seconds;
    return seconds;
}

SpanTable Tracer::take() {
    if (!stack_.empty()) throw std::logic_error("Tracer::take with open spans");
    SpanTable out;
    out.swap(table_);
    return out;
}

void merge_spans(SpanTable& into, const SpanTable& from) {
    for (const auto& [name, stats] : from) {
        SpanStats& target = into[name];
        target.total_s += stats.total_s;
        target.child_s += stats.child_s;
        target.count += stats.count;
    }
}

SpanTable median_spans(const std::vector<SpanTable>& tables) {
    if (tables.empty()) throw std::logic_error("median_spans of no tables");
    SpanTable out;
    for (const auto& [name, first] : tables.front()) {
        std::vector<double> totals, children;
        for (const SpanTable& table : tables) {
            const auto it = table.find(name);
            if (it == table.end() || it->second.count != first.count)
                throw std::runtime_error("span counts differ between iterations: " + name);
            totals.push_back(it->second.total_s);
            children.push_back(it->second.child_s);
        }
        out[name] = {median(totals), median(children), first.count};
    }
    return out;
}

double accounted_seconds(const SpanTable& table) {
    double total = 0.0;
    for (const auto& [name, stats] : table) total += stats.self_s();
    return total;
}

void Report::set(std::string_view name, double value) {
    if (!known_metric(name)) throw std::logic_error("unknown metric " + std::string(name));
    values_[std::string(name)] = value;
}

void Report::set_spans(const SpanTable& table) {
    std::map<std::string, double> self_by_layer;
    for (const auto& [name, stats] : table) {
        const std::string layer = name.substr(0, name.find('.'));
        self_by_layer[layer] += stats.self_s();
        set("count." + name, static_cast<double>(stats.count));
    }
    for (const auto& [layer, seconds] : self_by_layer) set("self." + layer + "_s", seconds);
}

void Report::check(bool ok, const std::string& what) {
    if (!ok) errors_.push_back(what);
}

std::string Report::result_json(bool trace) const {
    std::string metrics;
    const auto emit = [&](const MetricDef& def, double value) {
        if (!metrics.empty()) metrics += ", ";
        metrics += "\"" + std::string(def.name) + "\": {\"value\": " + json_number(value) +
                   ", \"unit\": \"" + def.unit + "\"}";
    };
    if (trace) {
        for (const MetricDef& def : kPerLayer) {
            const auto it = values_.find(def.name);
            emit(def, it == values_.end() ? 0.0 : it->second);
        }
    } else {
        for (const MetricDef& def : kEndToEnd) {
            const auto it = values_.find(def.name);
            if (it == values_.end())
                throw std::logic_error(std::string("end-to-end metric not set: ") + def.name);
            emit(def, it->second);
        }
    }
    return "{\"correct\": " + std::string(correct() ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + metrics + "}}";
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
    ppsc::Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
    return rng.next();
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

unsigned sweep_workers() {
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

}  // namespace e2e
