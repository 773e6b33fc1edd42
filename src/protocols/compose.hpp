// Parallel product composition of protocols.
//
// Runs two leaderless protocols on the same agents: the product state of an
// agent is a pair (q₁, q₂); when two agents meet, each component performs a
// (possibly silent) transition of its protocol, and the output is a boolean
// combination of the component outputs.  This is the classic closure
// construction behind "population protocols compute all of Presburger"
// (boolean combinations of thresholds and modulos).
//
// The composition multiplies state counts — |Q| = |Q₁|·|Q₂| — which is the
// succinctness price the paper's state-complexity question is about.
#pragma once

#include <functional>

#include "core/protocol.hpp"

namespace ppsc::protocols {

/// Pointwise boolean combiner for outputs.
using OutputCombiner = std::function<int(int, int)>;

inline OutputCombiner combine_and() {
    return [](int a, int b) { return a & b; };
}
inline OutputCombiner combine_or() {
    return [](int a, int b) { return a | b; };
}

/// Product of two leaderless protocols with identical input-variable lists.
/// Throws std::invalid_argument if either has leaders or the variable lists
/// differ.
Protocol product(const Protocol& first, const Protocol& second, const OutputCombiner& combine);

/// The same protocol with all outputs flipped.  Computes ¬φ whenever the
/// input computes φ (well-specified executions stabilise to the flipped
/// consensus).
Protocol negate(const Protocol& protocol);

}  // namespace ppsc::protocols
