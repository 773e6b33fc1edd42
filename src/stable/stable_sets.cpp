#include "stable/stable_sets.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/check.hpp"

namespace ppsc {

AgentCount BasisElement::norm() const noexcept {
    AgentCount norm = 0;
    for (const AgentCount c : base.counts()) norm = std::max(norm, c);
    return norm;
}

StableAnalysis::StableAnalysis(const Protocol& protocol, AgentCount max_population,
                               ReachabilityOptions options)
    : protocol_(protocol), max_population_(max_population), options_(options) {
    if (max_population < 2)
        throw std::invalid_argument("StableAnalysis: max_population must be >= 2");
}

void StableAnalysis::ensure_slice(AgentCount population) const {
    if (population < 2 || population > max_population_)
        throw std::invalid_argument("StableAnalysis: population size out of computed range");
    if (slices_.contains(population)) return;

    // Build against the owned copy so the graphs' protocol pointer stays
    // valid for the analysis' lifetime.
    ReachabilityGraph graph = ReachabilityGraph::full_slice(protocol_, population, options_);

    // Bad_b = configurations with an agent whose output is not b — read off
    // each node's count row in the arena, no Config materialised.
    std::vector<bool> bad[2];
    for (int b = 0; b < 2; ++b) bad[b].assign(graph.num_nodes(), false);
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        const std::span<const AgentCount> counts = graph.row(static_cast<NodeId>(node));
        for (std::size_t q = 0; q < counts.size(); ++q) {
            if (counts[q] > 0) bad[1 - protocol_.output(static_cast<StateId>(q))][node] = true;
        }
    }

    std::vector<Stability> slice_flags(graph.num_nodes(), Stability::kNeither);
    for (int b = 0; b < 2; ++b) {
        const std::vector<bool> can_reach_bad = graph.backward_closure(bad[b]);
        for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
            if (!can_reach_bad[node]) {
                PPSC_CHECK(slice_flags[node] == Stability::kNeither);
                slice_flags[node] = b == 0 ? Stability::kStable0 : Stability::kStable1;
            }
        }
    }
    flags_.emplace(population, std::move(slice_flags));
    slices_.emplace(population, std::move(graph));
}

void StableAnalysis::ensure_all_slices() const {
    for (AgentCount population = 2; population <= max_population_; ++population)
        ensure_slice(population);
}

const ReachabilityGraph& StableAnalysis::slice(AgentCount population) const {
    ensure_slice(population);
    return slices_.find(population)->second;
}

const std::vector<Stability>& StableAnalysis::flags(AgentCount population) const {
    ensure_slice(population);
    return flags_.find(population)->second;
}

Stability StableAnalysis::stability(const Config& config) const {
    const ReachabilityGraph& graph = slice(config.size());
    const std::optional<NodeId> node = graph.find(config);
    PPSC_CHECK_MSG(node.has_value(), "full slice must contain every configuration of its size");
    return flags(config.size())[static_cast<std::size_t>(*node)];
}

std::vector<Config> StableAnalysis::stable_configs(AgentCount population, int b) const {
    const ReachabilityGraph& graph = slice(population);
    const std::vector<Stability>& slice_flags = flags(population);
    const Stability wanted = b == 0 ? Stability::kStable0 : Stability::kStable1;
    std::vector<Config> result;
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        if (slice_flags[node] == wanted) result.push_back(graph.config(static_cast<NodeId>(node)));
    }
    return result;
}

std::vector<std::pair<AgentCount, std::size_t>> StableAnalysis::stable_counts(int b) const {
    ensure_all_slices();
    std::vector<std::pair<AgentCount, std::size_t>> counts;
    const Stability wanted = b == 0 ? Stability::kStable0 : Stability::kStable1;
    for (const auto& [population, slice_flags] : flags_) {
        counts.emplace_back(
            population,
            static_cast<std::size_t>(std::count(slice_flags.begin(), slice_flags.end(), wanted)));
    }
    return counts;
}

std::optional<Config> StableAnalysis::downward_closure_violation() const {
    ensure_all_slices();
    for (const auto& [population, slice_flags] : flags_) {
        if (population <= 2) continue;
        const ReachabilityGraph& graph = slice(population);
        for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
            const Stability s = slice_flags[node];
            if (s == Stability::kNeither) continue;
            const Config& config = graph.config(static_cast<NodeId>(node));
            for (const StateId q : config.support()) {
                Config smaller = config;
                smaller.add(q, -1);
                if (smaller.size() < 2) continue;
                if (stability(smaller) != s) return config;  // violation witness
            }
        }
    }
    return std::nullopt;
}

std::vector<BasisElement> StableAnalysis::empirical_basis(int b, AgentCount min_pump_margin) const {
    if (b != 0 && b != 1) throw std::invalid_argument("empirical_basis: b must be 0 or 1");
    if (min_pump_margin < 1)
        throw std::invalid_argument("empirical_basis: min_pump_margin must be >= 1");

    // Candidates: stable configurations small enough that pumping each
    // direction by min_pump_margin stays within the computed region.
    std::vector<BasisElement> candidates;
    for (AgentCount population = 2; population + min_pump_margin <= max_population_;
         ++population) {
        for (const Config& config : stable_configs(population, b)) {
            BasisElement element{config, {}};
            for (std::size_t q = 0; q < protocol_.num_states(); ++q) {
                bool pumpable = true;
                Config pumped = config;
                for (AgentCount j = 1; config.size() + j <= max_population_; ++j) {
                    pumped.add(static_cast<StateId>(q), 1);
                    if (!is_stable(pumped, b)) {
                        pumpable = false;
                        break;
                    }
                }
                if (pumpable) element.pump.push_back(static_cast<StateId>(q));
            }
            candidates.push_back(std::move(element));
        }
    }

    // Drop elements subsumed by another: (B,S) is subsumed by (B',S') when
    // B' ≤ B, S ⊆ S', and B − B' is supported on S'.
    auto subsumes = [](const BasisElement& big, const BasisElement& small) {
        if (!big.base.leq(small.base)) return false;
        if (big.base == small.base && big.pump == small.pump) return false;  // self
        if (!std::includes(big.pump.begin(), big.pump.end(), small.pump.begin(),
                           small.pump.end()))
            return false;
        const Config diff = small.base - big.base;
        for (const StateId q : diff.support()) {
            if (!std::binary_search(big.pump.begin(), big.pump.end(), q)) return false;
        }
        return true;
    };

    std::vector<BasisElement> basis;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        bool subsumed = false;
        for (std::size_t j = 0; j < candidates.size() && !subsumed; ++j) {
            if (i != j && subsumes(candidates[j], candidates[i])) subsumed = true;
        }
        if (!subsumed) basis.push_back(candidates[i]);
    }
    return basis;
}

}  // namespace ppsc
