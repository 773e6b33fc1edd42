// Downward-closed sets of configurations as unions of basis elements.
//
// Section 3 of the paper represents the (infinite, downward-closed) stable
// sets SC_b as finite unions ⋃ (B + N^S) of basis elements.  This module
// makes that representation a first-class value: membership, inclusion,
// union, normalisation, and the norm of Definition 3 — so the bounded
// empirical bases extracted by StableAnalysis can be manipulated and
// checked as the paper manipulates them on paper.
//
// Convention: an element (B, S) denotes the downward closure of B + N^S,
//   { C : C ≤ B + v for some v ∈ N^S },
// which is itself downward closed; finite unions of these are exactly the
// downward-closed sets of N^Q (the ideal decomposition).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "stable/stable_sets.hpp"

namespace ppsc {

/// A finite union of basis elements denoting a downward-closed set.
class DownwardClosedSet {
public:
    DownwardClosedSet() = default;
    explicit DownwardClosedSet(std::vector<BasisElement> elements);

    /// The set containing exactly the downward closure of one configuration.
    static DownwardClosedSet closure_of(const Config& config);

    bool empty() const noexcept { return elements_.empty(); }
    std::size_t num_elements() const noexcept { return elements_.size(); }
    const std::vector<BasisElement>& elements() const noexcept { return elements_; }

    /// Membership: C ≤ B + v for some element and v ∈ N^S.
    bool contains(const Config& config) const;

    /// Is every configuration of `other` contained here?  Decidable via
    /// element-wise checks: (B', S') ⊆ ⋃ᵢ (Bᵢ, Sᵢ) is checked by testing
    /// the element's dominating corner against each candidate (sound and
    /// complete when S' ⊆ Sᵢ for the covering element — conservative
    /// otherwise: an element that only the union of several elements
    /// contains is reported as not covered).
    bool covers(const DownwardClosedSet& other) const;

    /// Union (concatenate + normalise).
    DownwardClosedSet unified_with(const DownwardClosedSet& other) const;

    /// Removes elements subsumed by other elements.
    void normalise();

    /// max ∥B∥∞ over elements (the norm of Lemma 3.2).
    AgentCount norm() const noexcept;

    std::string to_string(std::span<const std::string> names = {}) const;

private:
    static bool element_contains(const BasisElement& element, const Config& config);
    static bool element_subsumes(const BasisElement& big, const BasisElement& small);

    std::vector<BasisElement> elements_;
};

}  // namespace ppsc
