#include "search/busy_beaver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

#include "analyze/analyze.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ppsc::search {

namespace {

/// A candidate encoding: deterministic total transition table over
/// unordered pairs plus an output bitmask.  Input variable at state 0.
struct Encoding {
    std::size_t n = 0;
    std::vector<std::uint16_t> table;  // pair index -> successor pair index
    std::uint32_t outputs = 0;         // bit q = output of state q

    bool operator==(const Encoding&) const = default;
};

std::size_t pair_index(std::size_t p, std::size_t q) {
    // p <= q.
    return q * (q + 1) / 2 + p;
}

/// Decodes a pair index back to (p, q) with p <= q.  Closed-form inverse of
/// the triangular layout k = q(q+1)/2 + p: q = ⌊(√(8k+1) − 1)/2⌋, computed
/// in floating point and corrected by at most one step either way (the
/// sqrt can land a hair off for k near a triangular number; the index
/// range here — uint16 table entries — is far inside double's exact-integer
/// window, so one correction step suffices).  The seed-era decoder scanned
/// rows linearly, an O(n) cost paid inside every permutation of every
/// candidate's canonicity check.
std::pair<std::size_t, std::size_t> pair_of_index(std::size_t index, std::size_t n) {
    std::size_t q = static_cast<std::size_t>(
        (std::sqrt(8.0 * static_cast<double>(index) + 1.0) - 1.0) / 2.0);
    while (q * (q + 1) / 2 > index) --q;
    while ((q + 1) * (q + 2) / 2 <= index) ++q;
    const std::size_t p = index - q * (q + 1) / 2;
    PPSC_DASSERT(p <= q);
    PPSC_DASSERT(q < n);
    (void)n;
    return {p, q};
}

/// Applies a state permutation to an encoding (perm[q] = new name of q).
Encoding permuted(const Encoding& encoding, const std::vector<std::size_t>& perm) {
    const std::size_t n = encoding.n;
    Encoding result;
    result.n = n;
    result.table.assign(encoding.table.size(), 0);
    for (std::size_t q = 0; q < n; ++q) {
        if ((encoding.outputs >> q) & 1u) result.outputs |= 1u << perm[q];
    }
    for (std::size_t q = 0; q < n; ++q) {
        for (std::size_t p = 0; p <= q; ++p) {
            const auto [r, s] = pair_of_index(encoding.table[pair_index(p, q)], n);
            const std::size_t new_p = std::min(perm[p], perm[q]);
            const std::size_t new_q = std::max(perm[p], perm[q]);
            const std::size_t new_r = std::min(perm[r], perm[s]);
            const std::size_t new_s = std::max(perm[r], perm[s]);
            result.table[pair_index(new_p, new_q)] =
                static_cast<std::uint16_t>(pair_index(new_r, new_s));
        }
    }
    return result;
}

/// Canonical = lexicographically minimal among renamings fixing state 0
/// (the input state).
bool is_canonical(const Encoding& encoding) {
    std::vector<std::size_t> perm(encoding.n);
    std::iota(perm.begin(), perm.end(), 0);
    // Permute states 1..n-1 only.
    std::vector<std::size_t> rest(perm.begin() + 1, perm.end());
    do {
        std::copy(rest.begin(), rest.end(), perm.begin() + 1);
        const Encoding other = permuted(encoding, perm);
        if (std::tie(other.outputs, other.table) < std::tie(encoding.outputs, encoding.table))
            return false;
    } while (std::next_permutation(rest.begin(), rest.end()));
    return true;
}

Protocol build_protocol(const Encoding& encoding) {
    ProtocolBuilder b;
    for (std::size_t q = 0; q < encoding.n; ++q)
        b.add_state("q" + std::to_string(q), (encoding.outputs >> q) & 1u);
    b.set_input("x", 0);
    for (std::size_t q = 0; q < encoding.n; ++q) {
        for (std::size_t p = 0; p <= q; ++p) {
            const auto [r, s] = pair_of_index(encoding.table[pair_index(p, q)], encoding.n);
            b.add_transition(static_cast<StateId>(p), static_cast<StateId>(q),
                             static_cast<StateId>(r), static_cast<StateId>(s));
        }
    }
    return std::move(b).build();
}

}  // namespace

SearchOutcome busy_beaver_search(std::size_t n, const SearchOptions& options) {
    if (n < 2) throw std::invalid_argument("busy_beaver_search: n must be >= 2");
    const std::size_t num_pairs = n * (n + 1) / 2;
    // Encoding capacity guards: the output mask is a uint32 bitmask indexed
    // by state (enumeration shifts 1u << n), and table entries are uint16
    // pair indices.  Both hold with astronomic slack for any enumerable n,
    // but the limits are structural, so enforce rather than assume them.
    PPSC_CHECK_MSG(n < 32, "busy_beaver_search: output bitmask is 32 bits wide");
    PPSC_CHECK(num_pairs <= std::numeric_limits<std::uint16_t>::max());
    if (n > 3 && options.sample_limit == 0)
        throw std::invalid_argument(
            "busy_beaver_search: exhaustive search beyond n = 3 is infeasible; set "
            "sample_limit");

    SearchOutcome outcome;
    outcome.n = n;
    outcome.exhaustive = options.sample_limit == 0;

    ReachabilityOptions reach;
    reach.max_nodes = options.max_nodes_per_graph;

    std::map<AgentCount, std::uint64_t> histogram;
    // One reachability arena for every graph of the search: it only
    // allocates when a graph outgrows all earlier ones.
    ReachabilityGraph arena;

    auto consider = [&](const Encoding& encoding) {
        ++outcome.enumerated;
        if (!is_canonical(encoding)) return;
        ++outcome.canonical;
        const Protocol protocol = build_protocol(encoding);
        // Phase 0 (optional): the StaticScreen stage — zero-simulation
        // refutation by certificate.  If every output-1 state is proven
        // unreachable, every reachable configuration has consensus 0, so
        // the exact infer_threshold below would return nullopt; dropping
        // the candidate here changes cost, never verdicts.
        if (options.static_screen) {
            // Linear-time analysis only (no cone completion): the candidates
            // are leaderless, where every invariant claim is subsumed by the
            // closure certificate anyway — the cone would add per-candidate
            // Hilbert cost and zero extra refutations.
            analyze::AnalysisOptions screen_options;
            screen_options.cone_state_cap = 0;
            const analyze::Analysis analysis =
                analyze::analyze_protocol(protocol, screen_options);
            if (analysis.consensus_refuted[1]) {
                ++outcome.static_refuted;
                return;
            }
        }
        const Verifier verifier(protocol, reach);
        // Phase 1 (optional): cheap randomized falsification.  Sound — a
        // refuted candidate's exact infer_threshold is guaranteed nullopt
        // (verify/verifier.hpp), so skipping it changes nothing but cost.
        if (options.screen &&
            verifier.screening_refutes_threshold(options.max_input, options.screening)) {
            ++outcome.screened_out;
            return;
        }
        std::optional<AgentCount> eta;
        try {
            eta = verifier.infer_threshold(options.max_input, arena);
        } catch (const std::length_error&) {
            ++outcome.budget_skipped;
            return;
        }
        if (!eta) return;
        // x >= eta must stay accepted up to the horizon, which
        // infer_threshold guarantees; thresholds at the very horizon are
        // indistinguishable from "accept nothing below max_input+1", so
        // only count eta strictly below the horizon.
        if (*eta >= options.max_input) return;
        ++outcome.threshold_protocols;
        ++histogram[*eta];
        if (*eta > outcome.best_eta) {
            outcome.best_eta = *eta;
            outcome.best_protocol_text = protocol.to_text();
        }
    };

    if (outcome.exhaustive) {
        // All output masks except all-0 / all-1 (those accept or reject
        // everything and cannot realise a threshold >= 2 anyway... all-1
        // realises "x >= 2" trivially: keep it, drop only all-0).
        std::uint64_t total_tables = 1;
        for (std::size_t i = 0; i < num_pairs; ++i) total_tables *= num_pairs;
        for (std::uint32_t outputs = 1; outputs < (1u << n); ++outputs) {
            Encoding encoding;
            encoding.n = n;
            encoding.outputs = outputs;
            encoding.table.assign(num_pairs, 0);
            for (std::uint64_t code = 0; code < total_tables; ++code) {
                std::uint64_t rest = code;
                for (std::size_t i = 0; i < num_pairs; ++i) {
                    encoding.table[i] = static_cast<std::uint16_t>(rest % num_pairs);
                    rest /= num_pairs;
                }
                consider(encoding);
            }
        }
    } else {
        Rng rng(options.seed);
        for (std::uint64_t trial = 0; trial < options.sample_limit; ++trial) {
            Encoding encoding;
            encoding.n = n;
            encoding.outputs =
                static_cast<std::uint32_t>(1 + rng.below((1u << n) - 1));  // not all-0
            encoding.table.resize(num_pairs);
            for (std::size_t i = 0; i < num_pairs; ++i)
                encoding.table[i] = static_cast<std::uint16_t>(rng.below(num_pairs));
            consider(encoding);
        }
    }

    outcome.eta_histogram.assign(histogram.begin(), histogram.end());
    return outcome;
}

}  // namespace ppsc::search
