// bb_sample: a sampled busy-beaver search at n = 5 (Definition 1 of the
// paper), exact verification on inputs 2..24, screens at their defaults
// (off).  Timed iteration: one busy_beaver_search call.
//
// After the loop the same seeded sample is replayed through the public
// layer calls — canonicity (replicated here; the search keeps it private),
// ProtocolBuilder, ReachabilityGraph::explore and compute_sccs — and must
// reproduce the search's outcome exactly.  The replay also counts the
// reachability edges, and, traced, measures what each screen would catch
// (analyze_protocol as the StaticScreen runs it, and
// Verifier::screening_refutes_threshold).
#include <algorithm>
#include <bit>
#include <limits>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "analyze/analyze.hpp"
#include "bench.hpp"
#include "protocols/families.hpp"
#include "search/busy_beaver.hpp"
#include "support/rng.hpp"
#include "verify/reachability.hpp"
#include "verify/verifier.hpp"

namespace e2e {

namespace {

constexpr std::size_t kStates = 5;
constexpr ppsc::AgentCount kMaxInput = 24;
constexpr std::size_t kMaxNodes = 60'000;

// The workload's input: a cost-balanced set of sampled searches.  One
// sampled search's cost swings five-fold between seeds — most canonical
// candidates are refuted at input 2, the rest explore up to 23 graphs — so
// an iteration runs kChunks sampled searches instead, each cut at exactly
// kChunkCanonical canonical candidates, picked from kPoolChunks seeded
// searches so the iteration's explored edges and samples sit closest to
// fixed targets (the means over 4970 sampled canonical candidates).  The
// pool is replayed before the loop: that prices the chunks and gives the
// outcome each must reproduce.
constexpr int kPoolChunks = 16;
constexpr int kChunks = 8;
constexpr std::uint64_t kChunkCanonical = 25;
constexpr double kEdgesPerCandidate = 95'000;
constexpr double kSamplesPerCandidate = 24.1;

// --- canonicity, replicated from search/busy_beaver.cpp ------------------

struct Encoding {
    std::vector<std::uint16_t> table;  // pair index -> successor pair index
    std::uint32_t outputs = 0;         // bit q = output of state q
};

std::size_t pair_index(std::size_t p, std::size_t q) { return q * (q + 1) / 2 + p; }

std::pair<std::size_t, std::size_t> pair_of_index(std::size_t index) {
    std::size_t q = static_cast<std::size_t>(
        (std::sqrt(8.0 * static_cast<double>(index) + 1.0) - 1.0) / 2.0);
    while (q * (q + 1) / 2 > index) --q;
    while ((q + 1) * (q + 2) / 2 <= index) ++q;
    return {index - q * (q + 1) / 2, q};
}

Encoding permuted(const Encoding& encoding, const std::vector<std::size_t>& perm) {
    Encoding result;
    result.table.assign(encoding.table.size(), 0);
    for (std::size_t q = 0; q < kStates; ++q) {
        if ((encoding.outputs >> q) & 1u) result.outputs |= 1u << perm[q];
    }
    for (std::size_t q = 0; q < kStates; ++q) {
        for (std::size_t p = 0; p <= q; ++p) {
            const auto [r, s] = pair_of_index(encoding.table[pair_index(p, q)]);
            const std::size_t new_pre =
                pair_index(std::min(perm[p], perm[q]), std::max(perm[p], perm[q]));
            result.table[new_pre] = static_cast<std::uint16_t>(
                pair_index(std::min(perm[r], perm[s]), std::max(perm[r], perm[s])));
        }
    }
    return result;
}

/// Lexicographically minimal among the renamings that fix state 0.
bool is_canonical(const Encoding& encoding) {
    std::vector<std::size_t> perm(kStates);
    std::iota(perm.begin(), perm.end(), 0);
    std::vector<std::size_t> rest(perm.begin() + 1, perm.end());
    do {
        std::copy(rest.begin(), rest.end(), perm.begin() + 1);
        const Encoding other = permuted(encoding, perm);
        if (std::tie(other.outputs, other.table) < std::tie(encoding.outputs, encoding.table))
            return false;
    } while (std::next_permutation(rest.begin(), rest.end()));
    return true;
}

ppsc::Protocol build_protocol(const Encoding& encoding) {
    ppsc::ProtocolBuilder b;
    for (std::size_t q = 0; q < kStates; ++q)
        b.add_state("q" + std::to_string(q), (encoding.outputs >> q) & 1u);
    b.set_input("x", 0);
    for (std::size_t q = 0; q < kStates; ++q) {
        for (std::size_t p = 0; p <= q; ++p) {
            const auto [r, s] = pair_of_index(encoding.table[pair_index(p, q)]);
            b.add_transition(static_cast<ppsc::StateId>(p), static_cast<ppsc::StateId>(q),
                             static_cast<ppsc::StateId>(r), static_cast<ppsc::StateId>(s));
        }
    }
    return std::move(b).build();
}

// --- exact verification through the public reachability calls ------------

struct ReplayCounts {
    std::uint64_t enumerated = 0;
    std::uint64_t canonical = 0;
    std::uint64_t thresholds = 0;
    std::uint64_t budget_skipped = 0;
    std::uint64_t graphs = 0;
    std::uint64_t nodes = 0;
    std::uint64_t edges = 0;
    std::uint64_t analyze_refuted = 0;
    std::uint64_t screen_refuted = 0;
    ppsc::AgentCount best_eta = 0;
    std::map<ppsc::AgentCount, std::uint64_t> histogram;

    void add(const ReplayCounts& other) {
        enumerated += other.enumerated;
        canonical += other.canonical;
        thresholds += other.thresholds;
        budget_skipped += other.budget_skipped;
        graphs += other.graphs;
        nodes += other.nodes;
        edges += other.edges;
        analyze_refuted += other.analyze_refuted;
        screen_refuted += other.screen_refuted;
        best_eta = std::max(best_eta, other.best_eta);
        for (const auto& [eta, count] : other.histogram) histogram[eta] += count;
    }
};

/// Verdict of one input, as Verifier::verify_input forms it: every bottom
/// SCC must be a consensus SCC, and all must agree.
std::optional<int> verdict(const ppsc::Protocol& protocol, ppsc::AgentCount input,
                           const ppsc::ReachabilityOptions& reach, Tracer& tracer,
                           ReplayCounts& counts) {
    const ppsc::Config roots[] = {protocol.initial_config(input)};
    std::optional<ppsc::ReachabilityGraph> graph;
    {
        Span span(tracer, "reach.explore");
        graph.emplace(ppsc::ReachabilityGraph::explore(protocol, roots, reach));
    }
    ++counts.graphs;
    counts.nodes += graph->num_nodes();
    counts.edges += graph->num_edges();

    Span span(tracer, "reach.scc");
    const auto scc = graph->compute_sccs();
    std::vector<std::int8_t> value(static_cast<std::size_t>(scc.num_components), 2);
    for (std::size_t node = 0; node < graph->num_nodes(); ++node) {
        const auto component = static_cast<std::size_t>(scc.component_of[node]);
        if (!scc.is_bottom[component]) continue;
        const std::optional<int> out =
            protocol.consensus_output(graph->config(static_cast<ppsc::NodeId>(node)));
        const std::int8_t v = out ? static_cast<std::int8_t>(*out) : std::int8_t{-1};
        if (value[component] == 2) {
            value[component] = v;
        } else if (value[component] != v) {
            value[component] = -1;
        }
    }
    std::optional<int> agreed;
    for (std::size_t component = 0; component < value.size(); ++component) {
        if (!scc.is_bottom[component]) continue;
        if (value[component] < 0 || (agreed && *agreed != value[component])) return std::nullopt;
        agreed = value[component];
    }
    return agreed;
}

/// Verifier::infer_threshold on inputs 2..kMaxInput.
std::optional<ppsc::AgentCount> infer_threshold(const ppsc::Protocol& protocol,
                                                const ppsc::ReachabilityOptions& reach,
                                                Tracer& tracer, ReplayCounts& counts) {
    std::optional<ppsc::AgentCount> first_accept;
    for (ppsc::AgentCount i = 2; i <= kMaxInput; ++i) {
        const std::optional<int> out = verdict(protocol, i, reach, tracer, counts);
        if (!out) return std::nullopt;
        if (*out == 1) {
            if (!first_accept) first_accept = i;
        } else if (first_accept) {
            return std::nullopt;
        }
    }
    return first_accept;
}

/// Replays busy_beaver_search's sample up to its `canonical`-th canonical
/// candidate (so `enumerated` is the sample_limit that cuts the search
/// there).  With `screens`, also runs both screens on every canonical
/// candidate — measured only: exact verification runs on every candidate
/// either way, as in the search.
ReplayCounts replay_search(std::uint64_t seed, std::uint64_t canonical, bool screens,
                           Tracer& tracer) {
    ReplayCounts counts;
    ppsc::ReachabilityOptions reach;
    reach.max_nodes = kMaxNodes;
    ppsc::analyze::AnalysisOptions static_screen;
    static_screen.cone_state_cap = 0;
    const std::size_t num_pairs = kStates * (kStates + 1) / 2;
    ppsc::Rng rng(seed);
    while (counts.canonical < canonical) {
        if (counts.enumerated > 1'000'000) throw std::logic_error("canonical candidates too rare");
        Encoding encoding;
        encoding.outputs = static_cast<std::uint32_t>(1 + rng.below((1u << kStates) - 1));
        encoding.table.resize(num_pairs);
        for (std::size_t i = 0; i < num_pairs; ++i)
            encoding.table[i] = static_cast<std::uint16_t>(rng.below(num_pairs));
        ++counts.enumerated;
        {
            Span span(tracer, "search.canonicalize");
            if (!is_canonical(encoding)) continue;
        }
        ++counts.canonical;
        std::optional<ppsc::Protocol> protocol;
        {
            Span span(tracer, "core.build");
            protocol.emplace(build_protocol(encoding));
        }
        if (screens) {
            {
                Span span(tracer, "analyze.protocol");
                if (ppsc::analyze::analyze_protocol(*protocol, static_screen).consensus_refuted[1])
                    ++counts.analyze_refuted;
            }
            Span span(tracer, "screen.refutes");
            if (ppsc::Verifier(*protocol, reach)
                    .screening_refutes_threshold(kMaxInput, ppsc::ScreeningOptions{}))
                ++counts.screen_refuted;
        }
        std::optional<ppsc::AgentCount> eta;
        try {
            eta = infer_threshold(*protocol, reach, tracer, counts);
        } catch (const std::length_error&) {
            ++counts.budget_skipped;
            continue;
        }
        if (!eta || *eta >= kMaxInput) continue;
        ++counts.thresholds;
        ++counts.histogram[*eta];
        counts.best_eta = std::max(counts.best_eta, *eta);
    }
    return counts;
}

struct Chunk {
    std::uint64_t seed = 0;
    ReplayCounts replay;  ///< replay.enumerated is the chunk's sample_limit
    SpanTable spans;      ///< the replay's spans (traced runs)
};

/// The kChunks pool chunks whose total edges and samples sit closest to
/// the targets (exhaustive over the C(16, 8) subsets; ties to the first).
std::vector<const Chunk*> pick_chunks(const std::vector<Chunk>& pool) {
    const double candidates = kChunks * static_cast<double>(kChunkCanonical);
    const double edges_target = candidates * kEdgesPerCandidate;
    const double samples_target = candidates * kSamplesPerCandidate;
    unsigned best_mask = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (unsigned mask = 0; mask < (1u << kPoolChunks); ++mask) {
        if (std::popcount(mask) != kChunks) continue;
        double edges = 0.0, samples = 0.0;
        for (int j = 0; j < kPoolChunks; ++j) {
            if (((mask >> j) & 1u) == 0) continue;
            edges += static_cast<double>(pool[static_cast<std::size_t>(j)].replay.edges);
            samples += static_cast<double>(pool[static_cast<std::size_t>(j)].replay.enumerated);
        }
        const double cost = (edges / edges_target - 1) * (edges / edges_target - 1) +
                            (samples / samples_target - 1) * (samples / samples_target - 1);
        if (cost < best_cost) {
            best_cost = cost;
            best_mask = mask;
        }
    }
    std::vector<const Chunk*> picked;
    for (int j = 0; j < kPoolChunks; ++j)
        if ((best_mask >> j) & 1u) picked.push_back(&pool[static_cast<std::size_t>(j)]);
    return picked;
}

bool matches(const ppsc::search::SearchOutcome& outcome, const ReplayCounts& replay) {
    const std::vector<std::pair<ppsc::AgentCount, std::uint64_t>> histogram(
        replay.histogram.begin(), replay.histogram.end());
    return outcome.enumerated == replay.enumerated && outcome.canonical == replay.canonical &&
           outcome.threshold_protocols == replay.thresholds &&
           outcome.budget_skipped == replay.budget_skipped &&
           outcome.best_eta == replay.best_eta && outcome.eta_histogram == histogram;
}

}  // namespace

void run_bb_sample(const RunConfig& config, Tracer& tracer, Report& report) {
    // Set-up is a known-answer gate: the exact verifier must find η = 4 for
    // the 5-state unary protocol x >= 4 on the search's own horizon and node
    // budget before any sampled verdict is trusted.
    tracer.set_enabled(config.trace);
    const std::vector<std::string> unary_args = {"4"};
    const Timed setup = timed_setup(tracer, 15, [&](bool) {
        std::optional<ppsc::Protocol> known;
        {
            Span span(tracer, "protocols.build");
            known.emplace(ppsc::protocols::build_family("unary", unary_args));
        }
        ppsc::ReachabilityOptions reach;
        reach.max_nodes = kMaxNodes;
        const std::optional<ppsc::AgentCount> eta =
            ppsc::Verifier(*known, reach).infer_threshold(kMaxInput);
        report.check(known->num_states() == kStates && eta == 4,
                     "known-answer gate: unary(4) not verified as x >= 4");
    });

    std::vector<Chunk> pool(kPoolChunks);
    const std::uint64_t base_seed = derive_seed(config.seed, 0xbb);
    for (std::size_t j = 0; j < pool.size(); ++j) {
        pool[j].seed = derive_seed(base_seed, j);
        pool[j].replay = replay_search(pool[j].seed, kChunkCanonical, config.trace, tracer);
        if (tracer.enabled()) pool[j].spans = tracer.take();
    }
    const std::vector<const Chunk*> chunks = pick_chunks(pool);
    ReplayCounts replay;
    SpanTable replay_spans;
    for (const Chunk* chunk : chunks) {
        replay.add(chunk->replay);
        merge_spans(replay_spans, chunk->spans);
    }

    ppsc::search::SearchOptions options;
    options.max_input = kMaxInput;
    options.max_nodes_per_graph = kMaxNodes;
    const auto iteration = [&](std::size_t) {
        std::vector<ppsc::search::SearchOutcome> outcomes;
        const auto start = Clock::now();
        for (const Chunk* chunk : chunks) {
            options.seed = chunk->seed;
            options.sample_limit = chunk->replay.enumerated;
            Span span(tracer, "search.busy_beaver");
            outcomes.push_back(ppsc::search::busy_beaver_search(kStates, options));
        }
        const double seconds = seconds_since(start);
        for (std::size_t c = 0; c < chunks.size(); ++c) {
            const ppsc::search::SearchOutcome& outcome = outcomes[c];
            report.attempted += outcome.canonical;
            report.failed += outcome.budget_skipped;
            std::uint64_t histogram_sum = 0;
            for (const auto& [eta, count] : outcome.eta_histogram) histogram_sum += count;
            report.check(histogram_sum == outcome.threshold_protocols,
                         "histogram does not sum to threshold_protocols");
            report.check(matches(outcome, chunks[c]->replay),
                         "search outcome differs from the layer-by-layer replay");
        }
        return seconds;
    };

    const double budget = config.trace ? config.seconds / 2 : config.seconds;
    tracer.set_enabled(false);
    const double wall_s = closed_loop(tracer, budget, 3, iteration).seconds;
    const double canonical = static_cast<double>(replay.canonical);
    if (!config.trace) {
        report.set("setup_s", setup.seconds);
        report.set("wall_s", wall_s);
        report.set("trials_per_s", static_cast<double>(replay.enumerated) / wall_s);
        report.set("fired_per_s", static_cast<double>(replay.edges) / wall_s);
        report.set("candidates_per_s", canonical / wall_s);
        report.set("peak_rss_mb", peak_rss_mb());
        return;
    }
    tracer.set_enabled(true);
    const Timed traced = closed_loop(tracer, budget, 3, iteration);
    const auto total = [&](const char* span) {
        const auto it = replay_spans.find(span);
        return it == replay_spans.end() ? 0.0 : it->second.total_s;
    };
    report.set("protocols.build_s", setup.spans.at("protocols.build").total_s);
    report.set("search.enumerated", static_cast<double>(replay.enumerated));
    report.set("search.canonical", canonical);
    report.set("search.canonical_ratio", ratio(canonical, static_cast<double>(replay.enumerated)));
    report.set("search.canonicalize_s", total("search.canonicalize"));
    report.set("search.threshold_protocols", static_cast<double>(replay.thresholds));
    report.set("search.budget_skipped", static_cast<double>(replay.budget_skipped));
    report.set("reach.explore_s", total("reach.explore"));
    report.set("reach.graphs", static_cast<double>(replay.graphs));
    report.set("reach.nodes", static_cast<double>(replay.nodes));
    report.set("reach.edges", static_cast<double>(replay.edges));
    report.set("reach.nodes_per_s",
               ratio(static_cast<double>(replay.nodes), total("reach.explore")));
    report.set("reach.scc_s", total("reach.scc"));
    report.set("verify.inputs_per_candidate", ratio(static_cast<double>(replay.graphs), canonical));
    report.set("analyze.s", total("analyze.protocol"));
    report.set("analyze.refuted", static_cast<double>(replay.analyze_refuted));
    report.set("analyze.refuted_ratio",
               ratio(static_cast<double>(replay.analyze_refuted), canonical));
    report.set("screen.s", total("screen.refutes"));
    report.set("screen.refuted", static_cast<double>(replay.screen_refuted));
    report.set("screen.refuted_ratio",
               ratio(static_cast<double>(replay.screen_refuted), canonical));
    report.set("trace.overhead_s", traced.seconds - wall_s);
    report.set("trace.accounted_s", accounted_seconds(traced.spans));
    report.set("failed_ratio", ratio(static_cast<double>(report.failed),
                                     static_cast<double>(report.attempted)));
    // Self times and counts: one set-up, the median traced iteration, and
    // the replay of the picked chunks.
    SpanTable spans = setup.spans;
    merge_spans(spans, traced.spans);
    merge_spans(spans, replay_spans);
    report.set_spans(spans);
}

}  // namespace e2e
