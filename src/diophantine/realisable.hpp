// Potentially realisable multiset bases (Definition 4 / Corollary 5.7).
//
// For a leaderless single-input protocol the potentially realisable
// multisets π — those with IC(i) =π⇒ C for some input i and configuration
// C ∈ N^Q — are exactly the solutions of the homogeneous system
//
//     Σ_t π(t)·Δt(q) ≥ 0        for every q ∈ Q ∖ {x},
//
// over the variables {π(t)}.  Corollary 5.7 applies Pottier's theorem to
// obtain a basis whose elements satisfy |π| ≤ ξ/2 where
// ξ = 2(2|T|+1)^{|Q|} is the Pottier constant (Definition 6).  This module
// computes that basis exactly and exposes the Lemma 5.8 search for a basis
// element whose reached configuration lies entirely inside a given S ⊆ Q.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/parikh.hpp"
#include "core/protocol.hpp"
#include "diophantine/pottier.hpp"
#include "support/bignat.hpp"

namespace ppsc {

struct RealisableBasis {
    /// Basis multisets: every potentially realisable π is an N-sum of these.
    std::vector<ParikhImage> elements;
    /// Minimal realising input i_j for each element (Definition 4 witness).
    std::vector<AgentCount> inputs;
    /// The configuration C_j = IC(i_j) + Δπ_j reached by each element.
    std::vector<std::vector<std::int64_t>> results;
    /// ξ = 2(2|T|+1)^|Q| (Definition 6).
    BigNat xi;
    /// Largest |π_j| in the basis — Corollary 5.7 promises ≤ ξ/2.
    std::int64_t max_size = 0;
};

/// The Pottier constant ξ of a protocol (Definition 6).
BigNat pottier_constant(const Protocol& protocol);

/// Computes the realisable-multiset basis.  Throws std::invalid_argument
/// for protocols with leaders or with more than one input variable (the
/// system is only homogeneous in the leaderless single-input case).
RealisableBasis realisable_multiset_basis(const Protocol& protocol,
                                          const HilbertOptions& options = {});

/// Lemma 5.8, constructive step: index of a basis element whose reached
/// configuration lies entirely inside S (no agents outside S), if any.
std::optional<std::size_t> zero_concentrated_element(const RealisableBasis& basis,
                                                     const Protocol& protocol,
                                                     std::span<const StateId> inside);

}  // namespace ppsc
