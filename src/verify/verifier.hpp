// Exhaustive verification of population protocols on bounded populations.
//
// Semantics: a fair execution of a finite system eventually enters a bottom
// SCC of the reachability graph and then visits every configuration of that
// SCC infinitely often.  Hence (Section 2.2):
//
//   * the executions from IC(v) *converge* to output b  ⇔  every bottom SCC
//     reachable from IC(v) consists solely of b-consensus configurations;
//   * the protocol is *well-specified at v* ⇔ that holds for some b;
//   * the protocol computes φ on a set of inputs ⇔ for every input v in the
//     set it converges to φ(v).
//
// This is exact for each checked input; it cannot by itself prove a
// statement for *all* (infinitely many) inputs — callers choose the input
// range and the reports say exactly what was checked.
//
// One simulation-based check remains beside the exact one:
// screening_refutes_threshold simulates each input a few times.  A
// converged run is a sound witness — the engine's convergence conditions
// (silence, output traps; sim/simulator.hpp) prove the reached
// configuration stable, and it is reachable from IC(i).  So converged
// output 1 at input i with converged output 0 at some j ≥ i, converged
// output 0 at the largest checked input, or a converged run without
// consensus each refute "computes x ≥ η" for every η.  It is
// falsification, never approximation: whenever it refutes,
// infer_threshold returns nullopt.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/predicate.hpp"
#include "core/protocol.hpp"
#include "verify/reachability.hpp"

namespace ppsc {

struct InputVerdict {
    std::vector<AgentCount> input;       ///< the checked input valuation
    bool well_specified = false;         ///< all reachable bottom SCCs agree
    std::optional<int> computed;         ///< the agreed output, if any
    std::size_t explored_nodes = 0;
    std::size_t bottom_scc_count = 0;
    /// A configuration in a non-consensus / disagreeing bottom SCC
    /// (diagnosis aid; empty when well-specified).
    std::optional<Config> counterexample;
};

/// How the exact verdict on one input of a threshold scan came out.
enum class InputOutcome : std::uint8_t {
    rejects,        ///< well-specified, computes 0
    accepts,        ///< well-specified, computes 1
    ill_specified,  ///< a bottom SCC without consensus, or two that disagree
    over_budget,    ///< the graph exceeded ReachabilityOptions::max_nodes
};

/// rejects / accepts / ill_specified, as `verdict` says.
InputOutcome outcome_of(const InputVerdict& verdict);

/// The verdict of a threshold scan (see scan_threshold).
struct ThresholdScan {
    enum class Result : std::uint8_t { threshold, no_threshold, over_budget };
    Result result = Result::no_threshold;
    AgentCount eta = 0;  ///< the first accepting input, when result == threshold
};

/// The 0…0 1…1 fold of infer_threshold, shared with busy_beaver_search:
/// reads outcome(i) for i = first, first + 1, …, last in that order and
/// stops at the first input that decides the scan — an ill-specified input
/// (no threshold), an over-budget one (over budget), or a rejection after
/// an acceptance (no threshold).  Otherwise the scan is a threshold at the
/// first accepting input, or no threshold if nothing accepts.  No outcome
/// past the deciding input is read, so a caller may leave those unknown.
template <typename Outcome>
ThresholdScan scan_threshold(AgentCount first, AgentCount last, Outcome&& outcome) {
    using Result = ThresholdScan::Result;
    ThresholdScan scan;  // no threshold until some input accepts
    for (AgentCount i = first; i <= last; ++i) {
        switch (outcome(i)) {
            case InputOutcome::ill_specified:
                return {Result::no_threshold};
            case InputOutcome::over_budget:
                return {Result::over_budget};
            case InputOutcome::accepts:
                if (scan.result != Result::threshold) scan = {Result::threshold, i};
                break;
            case InputOutcome::rejects:
                if (scan.result == Result::threshold) return {Result::no_threshold};
                break;
        }
    }
    return scan;
}

struct PredicateCheck {
    bool holds = true;                    ///< all checked inputs correct
    std::vector<InputVerdict> failures;   ///< wrong or ill-specified inputs
    std::size_t inputs_checked = 0;
    std::size_t total_nodes = 0;
};

/// Budget of screening_refutes_threshold (see the module comment).  The
/// defaults are tuned for busy-beaver candidates: populations ≤ max_input
/// agents converge (or provably fail to) within a few thousand interactions
/// when they converge at all.
struct ScreeningOptions {
    /// Simulated runs per input; 0 disables screening entirely.
    int runs = 2;
    /// Interaction budget per run (runs hitting it are inconclusive and
    /// never reject anything).
    std::uint64_t max_interactions = 20'000;
    /// Base seed; the per-(input, run) generator is derived
    /// deterministically, so screening verdicts are reproducible.
    std::uint64_t seed = 0x5c3ee11aU;
    /// Give up after this many consecutive inputs on which *every* run hit
    /// the interaction budget without converging (0 = never give up).
    /// Oscillating candidates never produce converged witnesses, so each
    /// further input would burn runs × max_interactions steps and learn
    /// nothing; giving up answers "inconclusive", which keeps screening
    /// sound.
    int max_inconclusive_inputs = 3;
};

class Verifier {
public:
    explicit Verifier(Protocol protocol, ReachabilityOptions options = {})
        : protocol_(std::move(protocol)), options_(options) {}

    /// Exact verdict for one input valuation.
    InputVerdict verify_input(std::span<const AgentCount> input) const;

    /// verify_input explored in `arena` (see ReachabilityGraph::reexplore),
    /// which afterwards holds the input's reachability graph.  Throws
    /// std::length_error past the node budget.
    InputVerdict verify_input(std::span<const AgentCount> input, ReachabilityGraph& arena) const;

    /// Single-variable convenience.
    InputVerdict verify_input(AgentCount input) const;

    /// Checks `predicate` on every single-variable input in [min_input,
    /// max_input] (single-input protocols).
    PredicateCheck check_predicate(const Predicate& predicate, AgentCount min_input,
                                   AgentCount max_input) const;

    /// Checks `predicate` on every input tuple whose total population lies
    /// in [2, max_population] (protocols with any number of variables).
    PredicateCheck check_predicate_all_tuples(const Predicate& predicate,
                                              AgentCount max_population) const;

    /// For single-input protocols: if the verdicts on [2, max_input] form
    /// the pattern 0…0 1…1, returns the threshold η (first accepted input;
    /// η = 2 if everything accepted).  Returns nullopt if some input is
    /// ill-specified, the pattern is broken, or everything is rejected.
    /// Inputs are explored in increasing order, all in one arena, and
    /// folded by scan_threshold (as busy_beaver_search folds them) until
    /// one decides the scan.  An input past the node budget throws
    /// std::length_error.
    std::optional<AgentCount> infer_threshold(AgentCount max_input) const;

    /// infer_threshold exploring in the caller's arena, so a search over
    /// many candidates reuses one set of buffers for all of them.
    std::optional<AgentCount> infer_threshold(AgentCount max_input,
                                              ReachabilityGraph& arena) const;

    /// Randomized falsification on the simulation fast path.  Returns true
    /// iff simulation *refuted* threshold behaviour on [start, max_input] —
    /// a converged run with no consensus, converged output 0 at max_input,
    /// or converged output 1 at some input i with converged output 0 at
    /// some j ≥ i.  Inputs are checked from max_input downward so the
    /// second condition can fire on the very first run.  Sound: whenever
    /// this returns true, infer_threshold(max_input) returns nullopt
    /// (asserted on exhaustive sweeps in tests/analysis_sparse_test.cpp);
    /// false is inconclusive.
    bool screening_refutes_threshold(AgentCount max_input,
                                     const ScreeningOptions& screening) const;

private:
    // Owned copy: the verifier may outlive a temporary the caller built
    // from (protocols are cheap values next to reachability graphs).
    Protocol protocol_;
    ReachabilityOptions options_;
};

}  // namespace ppsc
