#include "diophantine/realisable.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/check.hpp"

namespace ppsc {

BigNat pottier_constant(const Protocol& protocol) {
    // ξ := 2(2|T| + 1)^|Q|.
    return BigNat(2) * BigNat(2 * protocol.num_transitions() + 1).pow(protocol.num_states());
}

RealisableBasis realisable_multiset_basis(const Protocol& protocol,
                                          const HilbertOptions& options) {
    if (!protocol.is_leaderless())
        throw std::invalid_argument("realisable_multiset_basis: protocol must be leaderless");
    if (protocol.input_variables().size() != 1)
        throw std::invalid_argument(
            "realisable_multiset_basis: protocol must have exactly one input variable");

    const StateId input = protocol.input_state(0);
    HomogeneousSystem system;
    system.num_vars = protocol.num_transitions();
    // One O(|T|) pass over transition endpoints fills every row at once:
    // row q is the q-th coordinate of the displacements Δt, states
    // ascending, the input state skipped.
    std::vector<std::vector<std::int64_t>> delta(protocol.num_states(),
                                                 std::vector<std::int64_t>(system.num_vars, 0));
    for (std::size_t t = 0; t < system.num_vars; ++t) {
        const Transition& transition = protocol.transitions()[t];
        ++delta[static_cast<std::size_t>(transition.post1)][t];
        ++delta[static_cast<std::size_t>(transition.post2)][t];
        --delta[static_cast<std::size_t>(transition.pre1)][t];
        --delta[static_cast<std::size_t>(transition.pre2)][t];
    }
    for (std::size_t q = 0; q < protocol.num_states(); ++q) {
        if (static_cast<StateId>(q) == input) continue;
        system.rows.push_back(std::move(delta[q]));
    }

    RealisableBasis basis;
    basis.xi = pottier_constant(protocol);
    basis.elements = generating_basis_inequalities(system, options);
    for (const ParikhImage& element : basis.elements) {
        PPSC_CHECK(is_potentially_realisable(protocol, element));
        const AgentCount i = minimal_realising_input(protocol, element);
        basis.inputs.push_back(i);
        basis.results.push_back(
            apply_parikh(Config::single(protocol.num_states(), input, i), protocol, element));
        basis.max_size = std::max(basis.max_size, parikh_size(element));
    }
    return basis;
}

std::optional<std::size_t> zero_concentrated_element(const RealisableBasis& basis,
                                                     const Protocol& protocol,
                                                     std::span<const StateId> inside) {
    std::vector<bool> in_s(protocol.num_states(), false);
    for (const StateId q : inside) in_s.at(static_cast<std::size_t>(q)) = true;
    for (std::size_t j = 0; j < basis.elements.size(); ++j) {
        const auto& result = basis.results[j];
        bool concentrated = true;
        for (std::size_t q = 0; q < result.size(); ++q) {
            if (!in_s[q] && result[q] != 0) {
                concentrated = false;
                break;
            }
        }
        if (concentrated) return j;
    }
    return std::nullopt;
}

}  // namespace ppsc
