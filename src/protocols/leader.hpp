// Protocols with leaders.
//
// Leaders are auxiliary agents present in every initial configuration
// (the multiset L of the tuple (Q,T,L,X,I,O)).  Theorem 4.5 shows that
// with leaders the busy-beaver function can a priori reach Fast-Growing-
// Hierarchy magnitudes, and Theorem 2.2 (citing [12]) gives a
// doubly-exponential lower bound.  This module provides:
//
//   * leader_threshold(η)     — a simple counting leader: O(η) states.
//                               Not succinct; exercises the leader code
//                               paths end-to-end.
//   * leader_counter_cascade  — d chained base-c counters driven by one
//                               leader: computes x ≥ c^d with
//                               d·c + O(1) states, i.e. η = c^d with
//                               O(d·c) states.  With c fixed this is the
//                               classic "multiplying counting power"
//                               mechanism that leader constructions (e.g.
//                               [12]) push further; our family reaches
//                               exponential η; the 2^(2^n) family of
//                               [12] needs machinery beyond this cascade
//                               (honesty note, double_exp_threshold.hpp).
#pragma once

#include <cstdint>

#include "core/protocol.hpp"

namespace ppsc::protocols {

/// One leader counts input agents up to η, then starts an accepting
/// epidemic.  States: counters ℓ_0..ℓ_η, consumed token "d", accept "T",
/// input "x" — η + 4 states.  Throws std::invalid_argument unless
/// 1 ≤ η ≤ 2²⁰.
Protocol leader_threshold(AgentCount eta);

/// Cascade of `digits` base-`base` counters: the leader absorbs input
/// tokens; each absorption increments the least-significant counter with
/// carries; when the counter overflows past base^digits − 1, i.e. after
/// base^digits absorptions, the leader accepts.  Computes
/// x ≥ base^digits.  Throws std::invalid_argument unless base ≥ 2,
/// digits ≥ 1, and base^digits ≤ 2^20 (verification sanity bound).
Protocol leader_counter_cascade(int base, int digits);

}  // namespace ppsc::protocols
