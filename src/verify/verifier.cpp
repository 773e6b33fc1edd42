#include "verify/verifier.hpp"

#include <algorithm>

#include "sim/simulator.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ppsc {

InputOutcome outcome_of(const InputVerdict& verdict) {
    if (!verdict.well_specified) return InputOutcome::ill_specified;
    return *verdict.computed == 1 ? InputOutcome::accepts : InputOutcome::rejects;
}

InputVerdict Verifier::verify_input(std::span<const AgentCount> input) const {
    ReachabilityGraph arena;
    return verify_input(input, arena);
}

InputVerdict Verifier::verify_input(std::span<const AgentCount> input,
                                    ReachabilityGraph& arena) const {
    InputVerdict verdict;
    verdict.input.assign(input.begin(), input.end());

    const Config roots[] = {protocol_.initial_config(input)};
    arena.reexplore(protocol_, roots, options_);
    const ReachabilityGraph& graph = arena;
    verdict.explored_nodes = graph.num_nodes();

    const auto scc = graph.compute_sccs();

    // Consensus value of each bottom SCC: 0, 1, or -1 (none).
    const std::vector<std::int8_t> scc_value = bottom_scc_outputs(graph, scc);

    // Aggregate across bottom SCCs (all nodes in `graph` are reachable from
    // the root by construction).
    std::optional<int> agreed;
    bool consistent = true;
    for (std::size_t component = 0; component < scc_value.size(); ++component) {
        if (!scc.is_bottom[component]) continue;
        ++verdict.bottom_scc_count;
        const std::int8_t v = scc_value[component];
        if (v < 0) {
            consistent = false;
        } else if (!agreed) {
            agreed = v;
        } else if (*agreed != v) {
            consistent = false;
        }
        if (!consistent && !verdict.counterexample) {
            for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
                if (static_cast<std::size_t>(scc.component_of[node]) == component) {
                    verdict.counterexample = graph.config(static_cast<NodeId>(node));
                    break;
                }
            }
        }
    }
    PPSC_CHECK(verdict.bottom_scc_count > 0);

    verdict.well_specified = consistent && agreed.has_value();
    if (verdict.well_specified) verdict.computed = agreed;
    return verdict;
}

InputVerdict Verifier::verify_input(AgentCount input) const {
    const AgentCount values[] = {input};
    return verify_input(values);
}

namespace {

/// One input of check_predicate and check_predicate_all_tuples: verifies it
/// in `arena`, counts it in `check`, and records it as a failure unless it
/// is well-specified with the predicate's value.
void check_input(const Verifier& verifier, const Predicate& predicate,
                 std::span<const AgentCount> input, ReachabilityGraph& arena,
                 PredicateCheck& check) {
    InputVerdict verdict = verifier.verify_input(input, arena);
    ++check.inputs_checked;
    check.total_nodes += verdict.explored_nodes;
    if (!verdict.well_specified ||
        *verdict.computed != static_cast<int>(predicate.evaluate(input))) {
        check.holds = false;
        check.failures.push_back(std::move(verdict));
    }
}

}  // namespace

PredicateCheck Verifier::check_predicate(const Predicate& predicate, AgentCount min_input,
                                         AgentCount max_input) const {
    if (protocol_.input_variables().size() != 1)
        throw std::invalid_argument(
            "Verifier::check_predicate: protocol must have one input variable; use "
            "check_predicate_all_tuples");
    PredicateCheck check;
    ReachabilityGraph arena;
    for (AgentCount i = std::max<AgentCount>(min_input, protocol_.is_leaderless() ? 2 : 0);
         i <= max_input; ++i) {
        if (protocol_.leaders().size() + i < 2) continue;
        const AgentCount values[] = {i};
        check_input(*this, predicate, values, arena, check);
    }
    return check;
}

PredicateCheck Verifier::check_predicate_all_tuples(const Predicate& predicate,
                                                    AgentCount max_population) const {
    const std::size_t arity = protocol_.input_variables().size();
    PredicateCheck check;
    ReachabilityGraph arena;
    std::vector<AgentCount> tuple(arity, 0);
    // Enumerate all tuples with component sum ≤ max_population.
    auto recurse = [&](auto&& self, std::size_t var, AgentCount remaining) -> void {
        if (var + 1 == arity) {
            for (AgentCount c = 0; c <= remaining; ++c) {
                tuple[var] = c;
                AgentCount total = protocol_.leaders().size();
                for (const AgentCount v : tuple) total += v;
                if (total < 2) continue;
                check_input(*this, predicate, tuple, arena, check);
            }
            return;
        }
        for (AgentCount c = 0; c <= remaining; ++c) {
            tuple[var] = c;
            self(self, var + 1, remaining - c);
        }
    };
    if (arity > 0) recurse(recurse, 0, max_population);
    return check;
}

std::optional<AgentCount> Verifier::infer_threshold(AgentCount max_input) const {
    ReachabilityGraph arena;
    return infer_threshold(max_input, arena);
}

std::optional<AgentCount> Verifier::infer_threshold(AgentCount max_input,
                                                    ReachabilityGraph& arena) const {
    if (protocol_.input_variables().size() != 1) return std::nullopt;
    // The smallest input with at least two agents.
    const AgentCount first = std::max<AgentCount>(0, 2 - protocol_.leaders().size());
    const ThresholdScan scan = scan_threshold(first, max_input, [&](AgentCount i) {
        const AgentCount values[] = {i};
        return outcome_of(verify_input(values, arena));
    });
    if (scan.result != ThresholdScan::Result::threshold) return std::nullopt;
    return scan.eta;
}

bool Verifier::screening_refutes_threshold(AgentCount max_input,
                                           const ScreeningOptions& screening) const {
    if (protocol_.input_variables().size() != 1) return false;
    if (screening.runs <= 0 || screening.max_interactions == 0) return false;

    // One simulator per candidate: trap setup is the O(|T| + evictions·deg)
    // worklist fixpoint, negligible next to a single reachability graph.
    const Simulator simulator(protocol_);
    SimulationOptions run_options;
    run_options.max_interactions = screening.max_interactions;

    // Converged verdicts collected so far: the smallest input seen
    // accepting and the largest seen rejecting.  Threshold behaviour needs
    // every accepting input to lie strictly above every rejecting one.
    std::optional<AgentCount> min_one, max_zero;
    int inconclusive_streak = 0;

    const AgentCount start = protocol_.is_leaderless() ? 2 : std::max<AgentCount>(
        0, 2 - protocol_.leaders().size());
    const AgentCount first = std::max<AgentCount>(start, 0);
    if (max_input < first) return false;
    // Descending order: a converged 0 at max_input refutes on its own (see
    // below), and the commonest non-threshold candidates — always-rejecting
    // tables — converge to 0 everywhere, so starting at the top ends their
    // screening after a single run.
    for (AgentCount i = max_input; i >= first; --i) {
        if (protocol_.leaders().size() + i < 2) continue;
        bool any_converged = false;
        for (int run = 0; run < screening.runs; ++run) {
            // Deterministic per-(input, run) stream: SplitMix64 decorrelates
            // consecutive seeds, so a plain mix suffices.
            Rng rng(screening.seed ^
                    (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1) +
                     static_cast<std::uint64_t>(run)));
            const SimulationResult result = simulator.run_input(i, rng, run_options);
            if (!result.converged) continue;  // inconclusive run
            any_converged = true;
            if (!result.output) return true;  // stable but no consensus: ill-specified
            if (*result.output == 1) {
                if (!min_one || i < *min_one) min_one = i;
            } else {
                // A stable 0-consensus reachable from IC(max_input) means
                // the exact verdict there is 0 or ill-specified; either way
                // the pattern cannot end in an accepting run, so no
                // threshold exists.
                if (i == max_input) return true;
                if (!max_zero || i > *max_zero) max_zero = i;
            }
            if (min_one && max_zero && *min_one <= *max_zero) return true;
        }
        // Oscillator cut-off: candidates that never converge cannot be
        // refuted here, only drained of budget.  Report them inconclusive.
        inconclusive_streak = any_converged ? 0 : inconclusive_streak + 1;
        if (screening.max_inconclusive_inputs > 0 &&
            inconclusive_streak >= screening.max_inconclusive_inputs)
            return false;
    }
    return false;
}

}  // namespace ppsc
