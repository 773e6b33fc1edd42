// The Theorem 4.5 proof pipeline, executable (Lemmas 4.1 and 4.2).
//
// The paper's argument for the Ackermannian bound:
//   1. Lemma 4.2 — from every input i a stable configuration C_i ∈ SC is
//      reachable, and the C_i can be chosen coherently (C_i + j·x →* C_{i+j}).
//   2. Dickson's lemma — the sequence C_2, C_3, … contains an ordered pair
//      C_i ≤ C_j (i < j).
//   3. Lemma 4.1 — such a pair yields a *pumping certificate*: IC(i + λ(j−i))
//      stabilises to the same verdict for all λ, so the protocol's
//      threshold η satisfies η ≤ i.
//
// This module runs the pipeline on a concrete protocol: it computes the
// stable configurations C_i exactly (bottom-SCC consensus members), finds
// the first Dickson pair, checks the certificate's pumping claim on a few
// λ, and reports the bound η ≤ i it certifies — the proof of Theorem 4.5
// acting on real protocols instead of in the abstract.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "verify/reachability.hpp"

namespace ppsc::bounds {

struct PumpingCertificate {
    AgentCount a = 0;                ///< Lemma 4.1's a: certified η ≤ a
    AgentCount b = 0;                ///< pumping period (j − i)
    Config stable_low{0};            ///< C_a  (≤ C_{a+b})
    Config stable_high{0};           ///< C_{a+b}
    int verdict = 0;                 ///< the consensus both stabilise to
    /// Ordered pairs that failed the semantic pumping re-check before this
    /// one: such pairs satisfy C_i ≤ C_j but not Lemma 4.1's shared-basis-
    /// element side condition — the reason the lemma needs it.
    std::size_t candidates_rejected = 0;
};

struct PumpingOptions {
    AgentCount max_input = 16;       ///< horizon for the C_i sequence
    int check_lambdas = 2;           ///< how many pumped inputs to re-verify
    ReachabilityOptions reachability;
};

/// Runs the pipeline.  Returns nullopt if no ordered pair of stable
/// configurations appears below the horizon (then the horizon was too
/// small — Dickson guarantees one eventually).  Throws
/// std::invalid_argument for protocols without exactly one input variable,
/// and std::length_error if a reachability budget is exhausted.
std::optional<PumpingCertificate> find_pumping_certificate(const Protocol& protocol,
                                                           const PumpingOptions& options = {});

/// The stable configuration C_i the pipeline selects for one input:
/// the lexicographically least configuration of the least-index consensus
/// bottom SCC reachable from IC(i); nullopt if no bottom SCC is a
/// consensus (ill-specified input).
std::optional<Config> stable_configuration_for_input(const Protocol& protocol, AgentCount input,
                                                     const ReachabilityOptions& options = {});

}  // namespace ppsc::bounds
