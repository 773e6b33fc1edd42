// Stable configuration sets (Section 3 of the paper).
//
// Definition 2: a configuration C is b-stable if every configuration
// reachable from C has output b (all agents in b-output states).  SC_b is
// the set of b-stable configurations, SC = SC_0 ∪ SC_1.
//
// Computation: transitions preserve population size, so within the size-N
// slice C is b-stable iff C cannot reach Bad_b = { C' : some agent of C'
// outputs ¬b } — one backward reachability from Bad_b per slice, then
// complement.  Bad_b is seeded from each node's count row in the graph
// arena (an agent outside O⁻¹(b) is a nonzero count), and the backward
// reachability is ReachabilityGraph::backward_closure's reverse-CSR
// worklist (asserted identical to a deque-BFS oracle in
// tests/analysis_sparse_test.cpp).
//
// Lemma 3.1 says SC_b is downward closed; Lemma 3.2 says it has a basis
// (B,S) — finitely many "seed plus pumpable directions" pieces — of norm at
// most β = 2^(2(2n+1)!+1).  This module computes the bounded part of SC_b
// exactly, checks downward closure, and extracts an *empirical* basis whose
// norms the experiments compare against β (which is astronomically loose).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "verify/reachability.hpp"

namespace ppsc {

enum class Stability : std::uint8_t {
    kNeither,  ///< some reachable configuration breaks both consensuses
    kStable0,  ///< ∈ SC_0
    kStable1,  ///< ∈ SC_1
};

/// A basis element (B, S): the claim B + N^S ⊆ SC_b (Section 3).
struct BasisElement {
    Config base;                  ///< B
    std::vector<StateId> pump;    ///< S — pumpable directions
    AgentCount norm() const noexcept;  ///< ∥B∥∞
};

/// Exact stable sets for all population sizes 2..max_population.
///
/// Slices are computed *lazily*, on the first query that touches their
/// population size (a stability() lookup, stable_configs(), or one of the
/// all-slice reports below).  Memory bound: a materialised size-N slice
/// holds its C(N + |Q| − 1, |Q| − 1) configurations, the successor lists,
/// and one Stability byte per node — the total footprint is Σ over the
/// populations actually touched, not over all of [2, max_population] as
/// the seed-era eager constructor materialised.  stable_counts(),
/// downward_closure_violation() and empirical_basis() quantify over every
/// slice and therefore force them all.
///
/// Not thread-safe: lazy materialisation mutates internal caches even
/// through const queries.
class StableAnalysis {
public:
    /// Validates the inputs; no slice is built until first use.  Queries
    /// throw std::length_error if a slice exceeds the node budget.
    StableAnalysis(const Protocol& protocol, AgentCount max_population,
                   ReachabilityOptions options = {});

    const Protocol& protocol() const noexcept { return protocol_; }
    AgentCount max_population() const noexcept { return max_population_; }

    /// Stability of a configuration with 2 ≤ |C| ≤ max_population.
    /// Throws std::invalid_argument outside that range.
    Stability stability(const Config& config) const;

    bool is_stable(const Config& config, int b) const {
        const Stability s = stability(config);
        return (b == 0 && s == Stability::kStable0) || (b == 1 && s == Stability::kStable1);
    }

    /// All b-stable configurations of one slice.
    std::vector<Config> stable_configs(AgentCount population, int b) const;

    /// Number of b-stable configurations per slice (forces all slices).
    std::vector<std::pair<AgentCount, std::size_t>> stable_counts(int b) const;

    /// Lemma 3.1 check over the computed region: removing one agent from a
    /// b-stable configuration (population permitting) stays b-stable.
    /// Returns a violating configuration if any — expected nullopt.
    /// Forces all slices.
    std::optional<Config> downward_closure_violation() const;

    /// Empirical basis of SC_b over the computed region.  A state q is
    /// accepted as a pumpable direction of C if C + j·q stays b-stable for
    /// every j that keeps the size within max_population (at least
    /// `min_pump_margin` steps must be checkable).  Elements subsumed by
    /// another element are dropped.  Pumping is checked only up to
    /// max_population, so this approximates SC_b's basis; exact bases need
    /// unbounded pumping.
    /// Forces all slices.
    std::vector<BasisElement> empirical_basis(int b, AgentCount min_pump_margin = 2) const;

private:
    /// Materialises (or returns the cached) slice of one population size.
    const ReachabilityGraph& slice(AgentCount population) const;
    const std::vector<Stability>& flags(AgentCount population) const;
    void ensure_slice(AgentCount population) const;
    void ensure_all_slices() const;

    // Owned copy: analyses outlive any temporary the caller built from.
    Protocol protocol_;
    AgentCount max_population_;
    ReachabilityOptions options_;
    // Lazy caches, keyed by population size (see the class comment for the
    // memory bound).
    mutable std::map<AgentCount, ReachabilityGraph> slices_;
    mutable std::map<AgentCount, std::vector<Stability>> flags_;
};

}  // namespace ppsc
