// Empirical busy-beaver search (Definition 1 of the paper).
//
// BB(n) is the largest η such that some leaderless n-state protocol
// computes x ≥ η.  The paper brackets BB(n) between Ω(2^n) (Theorem 2.2)
// and 2^((2n+2)!) (Theorem 5.9); neither side is constructive for small n,
// so this module *measures*: it enumerates every deterministic n-state
// single-input protocol (up to state renaming), verifies each candidate
// exhaustively on all inputs up to a cutoff, and reports the largest
// threshold realised.
//
// Honest scope: the verifier checks inputs 2..max_input, so a reported
// threshold η means "behaves exactly like x ≥ η on every checked input".
// The enumeration covers deterministic protocols with the input mapped to
// state 0 — every protocol is isomorphic to one of that form, and
// determinism only shrinks the search space (a nondeterministic busy
// beaver may in principle beat the deterministic record).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "verify/verifier.hpp"

namespace ppsc::search {

struct SearchOptions {
    /// Verify candidate thresholds on inputs 2..max_input.
    AgentCount max_input = 12;
    /// Per-input reachability node budget; exceeding it skips the protocol
    /// (counted in budget_skipped, never silently mis-reported).
    std::size_t max_nodes_per_graph = 100'000;
    /// 0 = exhaustive enumeration; otherwise test this many random
    /// candidates (needed from n = 4 up, where the space has 10^10 tables).
    std::uint64_t sample_limit = 0;
    std::uint64_t seed = 0xbeefcafe;
    /// Worker threads checking candidates and verifying their inputs:
    /// 1 = serial, 0 = one per hardware thread.  The outcome does not
    /// depend on this setting.
    unsigned parallelism = 0;
};

struct SearchOutcome {
    std::size_t n = 0;
    std::uint64_t enumerated = 0;          ///< candidate encodings generated
    std::uint64_t canonical = 0;           ///< survivors of symmetry reduction
    std::uint64_t threshold_protocols = 0; ///< verified threshold behaviours
    std::uint64_t budget_skipped = 0;      ///< skipped on verification budget
    AgentCount best_eta = 0;               ///< empirical BB(n)
    std::string best_protocol_text;        ///< description of a witness
    /// histogram[η] = number of canonical protocols computing x ≥ η.
    std::vector<std::pair<AgentCount, std::uint64_t>> eta_histogram;
    bool exhaustive = true;                ///< false when sampling
};

/// Runs the search for n-state protocols.  Throws std::invalid_argument if
/// n < 2, or if n > 3 with sample_limit == 0 (exhaustive enumeration above
/// n = 3 is astronomically infeasible and surely a caller mistake).
///
/// Candidates are drawn serially in fixed-size blocks (the sampling stream
/// and the exhaustive enumeration order are those of a serial search).
/// Each block runs two passes on the worker pool: a canonicity pass, then
/// an input pass with one item per (canonical candidate, input), each
/// exploring one reachability graph in its worker's arena and recording
/// that input's outcome.  A candidate's inputs above its smallest
/// ill-specified or over-budget input seen so far are skipped; the serial
/// fold, in candidate order, scans each candidate's outcomes with
/// scan_threshold (verify/verifier.hpp), which stops at the first deciding
/// input and so never reads a skipped one.  Every outcome
/// field, including the witness (the first candidate reaching the strict
/// maximum), is therefore the serial search's.
SearchOutcome busy_beaver_search(std::size_t n, const SearchOptions& options = {});

}  // namespace ppsc::search
