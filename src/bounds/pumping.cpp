#include "bounds/pumping.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/check.hpp"

namespace ppsc::bounds {

std::optional<Config> stable_configuration_for_input(const Protocol& protocol, AgentCount input,
                                                     const ReachabilityOptions& options) {
    const Config roots[] = {protocol.initial_config(input)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(protocol, roots, options);
    const auto scc = graph.compute_sccs();

    // Deterministic choice: the least component id that is a consensus
    // bottom SCC, then the lexicographically least member configuration.
    // One pass over the nodes aggregates, per bottom component, both the
    // consensus verdict (2 = no member seen, −1 = mixed or non-consensus,
    // 0/1 = agreed so far) and the lexicographically least member, so the
    // selection is Θ(nodes) even on graphs with many bottom SCCs.
    constexpr NodeId kNoNode = -1;
    std::vector<std::int8_t> value(static_cast<std::size_t>(scc.num_components), 2);
    std::vector<NodeId> least(static_cast<std::size_t>(scc.num_components), kNoNode);
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        const auto component = static_cast<std::size_t>(scc.component_of[node]);
        if (!scc.is_bottom[component]) continue;
        const std::span<const AgentCount> counts = graph.row(static_cast<NodeId>(node));
        const std::optional<int> member = graph.protocol().consensus_output(counts);
        const std::int8_t v = member ? static_cast<std::int8_t>(*member) : std::int8_t{-1};
        if (value[component] == 2)
            value[component] = v;
        else if (value[component] != v)
            value[component] = -1;
        if (least[component] == kNoNode ||
            std::ranges::lexicographical_compare(counts, graph.row(least[component])))
            least[component] = static_cast<NodeId>(node);
    }
    for (std::int32_t component = 0; component < scc.num_components; ++component) {
        const auto c = static_cast<std::size_t>(component);
        if (!scc.is_bottom[c] || value[c] < 0 || value[c] == 2) continue;
        return graph.config(least[c]);
    }
    return std::nullopt;
}

std::optional<PumpingCertificate> find_pumping_certificate(const Protocol& protocol,
                                                           const PumpingOptions& options) {
    if (protocol.input_variables().size() != 1)
        throw std::invalid_argument(
            "find_pumping_certificate: protocol must have one input variable");

    // Lemma 4.2's sequence C_2, C_3, …, materialised exactly.
    std::vector<std::pair<AgentCount, Config>> stable_sequence;
    const AgentCount start = protocol.is_leaderless()
                                 ? 2
                                 : std::max<AgentCount>(0, 2 - protocol.leaders().size());
    for (AgentCount i = start; i <= options.max_input; ++i) {
        const auto stable =
            stable_configuration_for_input(protocol, i, options.reachability);
        if (stable) stable_sequence.emplace_back(i, *stable);
    }

    // Dickson scan in index order; accept the first ordered pair whose
    // pumping claim verifies semantically.  Pairs C_i ≤ C_j that fail the
    // re-check are exactly those missing Lemma 4.1's shared-basis-element
    // side condition (e.g. two rejecting configurations below a threshold
    // — pumping past the threshold flips the verdict).
    std::size_t rejected = 0;
    for (std::size_t lo = 0; lo < stable_sequence.size(); ++lo) {
        for (std::size_t hi = lo + 1; hi < stable_sequence.size(); ++hi) {
            const auto& [i, c_low] = stable_sequence[lo];
            const auto& [j, c_high] = stable_sequence[hi];
            if (!c_low.leq(c_high)) continue;
            const auto verdict_low = protocol.consensus_output(c_low);
            const auto verdict_high = protocol.consensus_output(c_high);
            PPSC_CHECK(verdict_low.has_value() && verdict_high.has_value());
            if (*verdict_low != *verdict_high) {
                ++rejected;
                continue;
            }

            // Lemma 4.1's conclusion, re-checked semantically: the pumped
            // inputs a + λb stabilise to the same verdict.  Check at least
            // check_lambdas periods AND past the horizon by one period, so
            // spurious below-threshold pairs (whose verdict flips beyond
            // the pair) cannot slip through.
            const AgentCount period = j - i;
            const AgentCount horizon_lambdas = (options.max_input - i) / period + 1;
            const AgentCount lambdas =
                std::max<AgentCount>(options.check_lambdas, horizon_lambdas);
            bool verified = true;
            for (AgentCount lambda = 1; lambda <= lambdas && verified; ++lambda) {
                const AgentCount pumped = i + lambda * period;
                const auto stable =
                    stable_configuration_for_input(protocol, pumped, options.reachability);
                if (!stable || protocol.consensus_output(*stable) != *verdict_low)
                    verified = false;
            }
            if (!verified) {
                ++rejected;
                continue;
            }

            PumpingCertificate certificate;
            certificate.a = i;
            certificate.b = j - i;
            certificate.stable_low = c_low;
            certificate.stable_high = c_high;
            certificate.verdict = *verdict_low;
            certificate.candidates_rejected = rejected;
            return certificate;
        }
    }
    return std::nullopt;
}

}  // namespace ppsc::bounds
