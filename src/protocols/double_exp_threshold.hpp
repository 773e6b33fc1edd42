// Double-exponential thresholds: the large-state-space workload (E11).
//
// Czerner's follow-up to the source paper ("Leaderless Population Protocols
// Decide Double-exponential Thresholds", arXiv:2204.02115) shows that the
// lower bound of the paper is tight: x ≥ 2^(2^n) is decidable with O(n)
// states.  This module provides the simulation workload that regime opens:
// *succinct counter agents* — every agent carries a power-of-two token that
// merges pairwise, and a collector walks down the set bits of η — deciding
// thresholds up to 2^(2^n), with |Q| = Θ(2^n) = Θ(log η) states.
//
// Honesty note: succinct_threshold is the library's one collector
// construction (collector_threshold is its int64 entry point), i.e. the
// O(log η) succinctness of Blondin–Esparza–Jaax at thresholds
// double-exponential in n.  Czerner's O(n) = O(log log η) construction
// additionally needs phase clocks and restart machinery; what the engine
// needs from the family is the state-space blow-up itself: |Q| ≫ 10³ and —
// in the dense variant — millions of non-silent pairs, exactly the regime
// the pair-weight Fenwick sampler exists for.
//
// All protocols here are leaderless and single-input ("x"); small instances
// are exhaustively verified in the test suite.
#pragma once

#include <cstdint>

#include "core/protocol.hpp"
#include "support/bignat.hpp"

namespace ppsc::protocols {

/// Hard cap on η's binary size.  The rule table is Θ(#non-silent pairs), so
/// there is no Θ(|Q|²) memory wall; what caps this is construction cost —
/// the builder emits Θ(k · #collectors) transitions, which for bit-dense η
/// is quadratic in the bit length.  2¹⁷ + 1 bits admits the flagship
/// double_exp_threshold(17) with |Q| = 2¹⁷ + 3 > 10⁵ states (exact powers
/// have no collectors, so those build in Θ(|Q|) transitions).
inline constexpr std::uint64_t kSuccinctThresholdMaxBits = (std::uint64_t{1} << 17) + 1;

/// Leaderless threshold protocol for arbitrary-precision η ≥ 1 with
/// Θ(log η) states (tokens t_0..t_k of value 2^i, collectors per set bit,
/// accepting epidemic).  collector_threshold(η) is this protocol for
/// η < 2^40.  Throws std::invalid_argument on η < 1 or
/// η.bit_length() > kSuccinctThresholdMaxBits.
Protocol succinct_threshold(const BigNat& eta);

/// Number of states succinct_threshold(η) uses (without building it).
std::size_t succinct_threshold_states(const BigNat& eta);

/// η(n) = 2^(2^n), the double-exponential threshold family.
BigNat double_exp_eta(int n);

/// Decides x ≥ 2^(2^n) with 2^n + 3 states (the token chain reaches level
/// 2^n; any level-2^n token witnesses the threshold).  Builds in Θ(2^n)
/// transitions, so the sparse rule table carries it to n = 17
/// (|Q| = 131075).  Throws std::invalid_argument unless 0 ≤ n ≤ 17.
Protocol double_exp_threshold(int n);

/// Decides x ≥ 2^(2^n) − 1, the all-bits-set threshold: every bit of η
/// spawns a collector, giving ~2^(n+1) states and Θ(4^n) non-silent pairs —
/// the many-pair stress case for fired-step sampling.  The Θ(4^n)
/// *construction* keeps this variant capped below the flagship: throws
/// std::invalid_argument unless 1 ≤ n ≤ 13.
Protocol double_exp_threshold_dense(int n);

}  // namespace ppsc::protocols
