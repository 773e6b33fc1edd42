#include "search/busy_beaver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <span>
#include <stdexcept>

#include "support/check.hpp"
#include "support/parallel.hpp"
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

/// Candidates drawn per block.  The sampling stream and the enumeration stay
/// sequential; only verification runs on the pool.
constexpr std::size_t kBlockSize = 4096;

/// What one candidate contributes to the outcome.
enum class Verdict : std::uint8_t {
    non_canonical,
    budget_skipped,
    no_threshold,
    threshold,
};

struct CandidateResult {
    /// A canonical candidate starts as no_threshold; the fold of its
    /// inputs decides its verdict.
    Verdict verdict = Verdict::non_canonical;
    AgentCount eta = 0;  ///< the verified threshold, when verdict == threshold
};

/// One input of a survivor, explored in `arena`: an item of the input pass.
InputOutcome verify_one_input(const Verifier& verifier, AgentCount input,
                              ReachabilityGraph& arena) {
    const AgentCount values[] = {input};
    try {
        return outcome_of(verifier.verify_input(values, arena));
    } catch (const std::length_error&) {
        return InputOutcome::over_budget;
    }
}

/// A survivor's verdict from its per-input outcomes (outcomes[i − 2] for
/// input i), folded as infer_threshold folds them.
CandidateResult fold_inputs(std::span<const InputOutcome> outcomes, AgentCount max_input) {
    const ThresholdScan scan = scan_threshold(2, max_input, [&](AgentCount i) {
        return outcomes[static_cast<std::size_t>(i - 2)];
    });
    if (scan.result == ThresholdScan::Result::over_budget) return {Verdict::budget_skipped};
    // x >= eta must stay accepted up to the horizon, which the scan
    // guarantees; thresholds at the very horizon are indistinguishable
    // from "accept nothing below max_input+1", so only count eta strictly
    // below the horizon.
    if (scan.result == ThresholdScan::Result::threshold && scan.eta < max_input)
        return {Verdict::threshold, scan.eta};
    return {Verdict::no_threshold};
}

/// value = min(value, bound), atomically.
void lower_to(std::atomic<AgentCount>& value, AgentCount bound) {
    AgentCount seen = value.load();
    while (bound < seen && !value.compare_exchange_weak(seen, bound)) {
    }
}

/// min(cap, C(m, k)): C(population + |Q| − 1, |Q| − 1) is the size of a
/// population slice, the largest graph an input of that size can produce.
std::size_t capped_binomial(std::size_t m, std::size_t k, std::size_t cap) {
    std::size_t c = 1;  // C(m − k + i, i) after step i, nondecreasing in i
    for (std::size_t i = 1; i <= k && c < cap; ++i) {
        const std::size_t factor = m - k + i;
        if (c > std::numeric_limits<std::size_t>::max() / factor) return cap;
        c = c * factor / i;
    }
    return std::min(c, cap);
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

    // Candidate encodings in search order.  Exhaustive: all output masks
    // except all-0 (which accepts nothing; all-1 realises "x >= 2"
    // trivially, so it stays), each with every table code.  Sampled: one
    // seeded stream, output mask first, then the table entries.
    std::uint64_t total_tables = 1;
    if (outcome.exhaustive)
        for (std::size_t i = 0; i < num_pairs; ++i) total_tables *= num_pairs;
    const std::uint64_t total = outcome.exhaustive
                                    ? ((std::uint64_t{1} << n) - 1) * total_tables
                                    : options.sample_limit;
    std::uint32_t outputs = 1;
    std::uint64_t code = 0;
    std::uint64_t drawn = 0;
    Rng rng(options.seed);
    const auto draw = [&](Encoding& encoding) {
        if (drawn == total) return false;
        ++drawn;
        encoding.n = n;
        encoding.table.resize(num_pairs);
        if (outcome.exhaustive) {
            encoding.outputs = outputs;
            std::uint64_t rest = code;
            for (std::size_t i = 0; i < num_pairs; ++i) {
                encoding.table[i] = static_cast<std::uint16_t>(rest % num_pairs);
                rest /= num_pairs;
            }
            if (++code == total_tables) {
                code = 0;
                ++outputs;
            }
        } else {
            encoding.outputs =
                static_cast<std::uint32_t>(1 + rng.below((1u << n) - 1));  // not all-0
            for (std::size_t i = 0; i < num_pairs; ++i)
                encoding.table[i] = static_cast<std::uint16_t>(rng.below(num_pairs));
        }
        return true;
    };

    // Candidates are leaderless: exact verification checks inputs
    // 2..max_input, one reachability graph each.
    const auto num_inputs = static_cast<std::size_t>(std::max<AgentCount>(options.max_input - 1, 0));
    const auto block_size = static_cast<std::size_t>(std::min<std::uint64_t>(total, kBlockSize));
    // One arena per worker of the input pass, which can run more workers
    // than a block has candidates (every survivor has num_inputs items).
    // Each is reserved once for the largest graph the search can build (a
    // full slice at the horizon, or the node budget), so the arena's
    // buffers are never regrown and copied during the search.
    const unsigned max_workers = worker_count(options.parallelism, block_size * num_inputs);
    const std::size_t horizon = static_cast<std::size_t>(std::max<AgentCount>(options.max_input, 0));
    const std::size_t max_nodes = capped_binomial(horizon + n - 1, n - 1, reach.max_nodes);
    // A worker writes its arena on every explored edge while every worker
    // reads the survivors' tables, which the calling thread builds.  So the
    // arenas sit on cache lines of their own, and a worker reserves its
    // arena on its first item, which puts the buffers in that worker's
    // malloc arena, apart from the tables; sharing a cache line with them
    // measurably slows the input pass.
    struct alignas(64) WorkerArena {
        ReachabilityGraph graph;
        bool reserved = false;
    };
    std::vector<WorkerArena> arenas(max_workers);

    std::map<AgentCount, std::uint64_t> histogram;
    std::vector<Encoding> block(block_size);
    std::vector<CandidateResult> results(block_size);
    // One verifier per survivor of the current block, in candidate order.
    std::vector<Verifier> verifiers;
    std::vector<InputOutcome> outcomes;       // survivor-major, input 2 first
    while (true) {
        std::size_t size = 0;
        while (size < block_size && draw(block[size])) ++size;
        if (size == 0) break;
        // Candidate pass: canonicity.
        parallel_for(size, worker_count(options.parallelism, size),
                     [&](unsigned, std::size_t i) {
                         results[i] = {is_canonical(block[i]) ? Verdict::no_threshold
                                                              : Verdict::non_canonical};
                     });
        // The survivors' tables are built here, on the calling thread, so
        // they sit apart from the per-input scratch the workers write (see
        // WorkerArena).
        verifiers.clear();
        for (std::size_t i = 0; i < size; ++i)
            if (results[i].verdict == Verdict::no_threshold)
                verifiers.emplace_back(build_protocol(block[i]), reach);
        // Input pass: one item per (survivor, input), claimed survivor by
        // survivor, each exploring one graph in its worker's arena.  A
        // survivor's first decisive input — the smallest seen ill-specified
        // or over budget — only ever falls, towards its final value, and
        // items above the current value are skipped: every input at or
        // below the final value runs, and the fold reads no input past it.
        const std::size_t items = verifiers.size() * num_inputs;
        outcomes.resize(items);
        std::vector<std::atomic<AgentCount>> first_decisive(verifiers.size());
        for (std::atomic<AgentCount>& decisive : first_decisive)
            decisive.store(options.max_input);
        parallel_for(items, worker_count(options.parallelism, items),
                     [&](unsigned worker, std::size_t item) {
                         const std::size_t s = item / num_inputs;
                         const auto input = static_cast<AgentCount>(2 + item % num_inputs);
                         std::atomic<AgentCount>& decisive = first_decisive[s];
                         if (input > decisive.load()) return;
                         WorkerArena& arena = arenas[worker];
                         if (!arena.reserved) {
                             arena.graph.reserve(n, max_nodes, max_nodes * num_pairs);
                             arena.reserved = true;
                         }
                         const InputOutcome result =
                             verify_one_input(verifiers[s], input, arena.graph);
                         outcomes[item] = result;
                         if (result == InputOutcome::ill_specified ||
                             result == InputOutcome::over_budget)
                             lower_to(decisive, input);
                     });
        // Serial fold, in candidate order, so the outcome — the witness
        // included: the first candidate to reach the strict maximum — is
        // the serial search's.
        std::size_t survivor = 0;
        for (std::size_t i = 0; i < size; ++i) {
            if (results[i].verdict == Verdict::no_threshold)
                results[i] = fold_inputs(
                    std::span(outcomes).subspan(survivor++ * num_inputs, num_inputs),
                    options.max_input);
            const CandidateResult& result = results[i];
            ++outcome.enumerated;
            if (result.verdict != Verdict::non_canonical) ++outcome.canonical;
            switch (result.verdict) {
                case Verdict::non_canonical:
                case Verdict::no_threshold:
                    break;
                case Verdict::budget_skipped:
                    ++outcome.budget_skipped;
                    break;
                case Verdict::threshold:
                    ++outcome.threshold_protocols;
                    ++histogram[result.eta];
                    if (result.eta > outcome.best_eta) {
                        outcome.best_eta = result.eta;
                        outcome.best_protocol_text = build_protocol(block[i]).to_text();
                    }
                    break;
            }
        }
    }

    outcome.eta_histogram.assign(histogram.begin(), histogram.end());
    return outcome;
}

}  // namespace ppsc::search
