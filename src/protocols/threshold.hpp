// Threshold protocols: families computing x ≥ η.
//
// Three constructions with very different state complexities — exactly the
// gap the paper studies:
//
//   * unary_threshold(η)       — Example 2.1's P_k generalised to any η:
//                                η+1 states.  Simple, terrible complexity.
//   * binary_threshold_power(k)— Example 2.1's P'_k verbatim: computes
//                                x ≥ 2^k with k+2 states ({0, 2^0..2^k};
//                                the paper's prose counts k+1, one
//                                fewer than the state set it lists).
//   * collector_threshold(η)   — a leaderless O(log η) protocol for
//                                *arbitrary* η in the spirit of Blondin,
//                                Esparza, Jaax [12]: agents hold power-of-
//                                two tokens that merge, and a "collector"
//                                walks down the set bits of η absorbing
//                                matching tokens; any witnessed value ≥ η
//                                triggers an accepting epidemic.  The
//                                int64 entry point of succinct_threshold
//                                (double_exp_threshold.cpp argues it).
//
// All three are leaderless, single-input, and exhaustively verified in the
// test suite.
#pragma once

#include <cstdint>

#include "core/protocol.hpp"

namespace ppsc::protocols {

/// Example 2.1 P_k generalised: states {0..η}, value-summing transitions
/// capped at η, output 1 iff value η.  Computes x ≥ η with η+1 states.
/// Throws std::invalid_argument unless 1 ≤ η ≤ 2¹⁰ (it builds
/// (η+1)(η+2)/2 transitions).
Protocol unary_threshold(AgentCount eta);

/// Example 2.1 P'_k: computes x ≥ 2^k with states {0, 2^0, ..., 2^k}.
/// Throws std::invalid_argument if k < 0 or k > 40.
Protocol binary_threshold_power(int k);

/// Leaderless threshold protocol for arbitrary η ≥ 1 with O(log η) states:
/// succinct_threshold(η) (the 2-state detector for η = 1).  Throws
/// std::invalid_argument on η < 1 or η ≥ 2^40.
Protocol collector_threshold(AgentCount eta);

/// Number of states collector_threshold(η) uses (without building it).
/// Throws std::invalid_argument on η < 1.
std::size_t collector_threshold_states(AgentCount eta);

}  // namespace ppsc::protocols
