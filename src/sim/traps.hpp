// Output traps: the stable-consensus detector of the simulation layer.
//
// An output trap W_b is a subset of O⁻¹(b) closed under interaction: every
// transition whose both pre-states lie in W_b keeps both post-states in W_b.
// If all agents sit inside W_b, every reachable configuration stays inside,
// so the output is stably b — the core sufficient condition for stable
// consensus in randomized simulation (Esparza's verification survey,
// arXiv:2108.13449, calls this the layered/trap argument).
//
// Both algorithms here compute the same greatest-fixpoint
// under-approximation: seed with all b-output states, and while some
// transition has both pre-states inside but a post-state outside, evict
// *both* pre-states.  Evicting both is conservative (any subset of a trap
// seeded this way remains sound) and — crucially — makes the fixpoint
// depend on the order in which violating transitions are processed:
//
//   reference — the original formulation: full passes over the transition
//     list in ascending TransitionId order, repeated until a pass changes
//     nothing.  O(passes · |T|) with up to Θ(|Q|) passes (eviction chains
//     advance one level per pass on the threshold families), which is the
//     practical wall for *simulating* |Q| ≥ 10⁵ protocols: the sparse rule
//     tables build double_exp_threshold(17) in ~20 MB, but seeding a
//     Simulator on it used to cost Θ(|Q| · |T|) ≈ 5·10¹⁰ transition checks.
//
//   worklist — the same eviction sequence from a round-structured worklist:
//     round 1 examines every transition in ascending id order; evicting a
//     state re-queues only the transitions *producing* it (the protocol's
//     transition-incidence index) — into the current round when their id is
//     still ahead of the scan, into the next round otherwise.  Each round
//     drains in ascending id order, so every transition is (re)examined at
//     exactly the positions the reference pass structure would examine it
//     at, and the evictions — hence the trap — are identical, not merely
//     equally sound.  Total work O(|T| + Σ_evictions deg_producing), with
//     a log factor only on the (few) re-queued ids — the seed scan is a
//     linear cursor over a sorted vector, never a heap — i.e. O(|T|) for
//     the threshold families: trap setup at |Q| = 131075 drops from
//     minutes to milliseconds.
//
// The determinism contract (worklist ≡ reference, exactly) is asserted on
// exhaustive small-protocol sweeps in tests/sim_trap_test.cpp and on the
// E11 sweep instances in tests/double_exp_test.cpp.
#pragma once

#include <vector>

#include "core/protocol.hpp"

namespace ppsc {

/// Which algorithm computes the output traps.  Both produce identical trap
/// sets; `reference` is O(passes · |T|) and survives for tests, CI legs and
/// benchmarks, `worklist` (the default) is O(|T| + evictions · deg).
enum class TrapCompute { worklist, reference };

/// The output trap W_b ⊆ O⁻¹(b) (indexed by state), computed by `kind`.
std::vector<bool> compute_output_trap(const Protocol& protocol, int b, TrapCompute kind);

}  // namespace ppsc
