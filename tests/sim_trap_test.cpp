// Stable-consensus detection: the worklist trap fixpoint must be
// *identical* (not merely equally sound) to the reference pass structure —
// the evict-both-pre-states rule is scan-order dependent, so this is a real
// contract, asserted exhaustively on small protocols and on the E11 family
// — and the incremental per-trap outside-support counters behind the O(1)
// stability probes must agree with the from-scratch probe after arbitrarily
// long trajectories under both pair-selection modes.
#include "sim/traps.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "protocols/double_exp_threshold.hpp"
#include "protocols/threshold.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace ppsc {
namespace {

void expect_traps_identical(const Protocol& protocol, const std::string& what) {
    for (int b = 0; b < 2; ++b) {
        const std::vector<bool> worklist = compute_output_trap(protocol, b, TrapCompute::worklist);
        const std::vector<bool> reference =
            compute_output_trap(protocol, b, TrapCompute::reference);
        EXPECT_EQ(worklist, reference) << what << ", b = " << b;
    }
}

// Every protocol over 3 states with at most two non-silent transitions and
// every output assignment: 3728 protocols, including zero-non-silent-pair
// ones (the empty transition set) and multi-rule nondeterministic pairs
// (two transitions sharing a pre-pair).
TEST(TrapCompute, ExhaustiveThreeStateSweep) {
    struct Candidate {
        StateId p, q, p2, q2;
    };
    std::vector<Candidate> candidates;
    for (StateId p = 0; p < 3; ++p)
        for (StateId q = p; q < 3; ++q)
            for (StateId p2 = 0; p2 < 3; ++p2)
                for (StateId q2 = p2; q2 < 3; ++q2) {
                    if (p == p2 && q == q2) continue;  // silent
                    candidates.push_back({p, q, p2, q2});
                }
    ASSERT_EQ(candidates.size(), 30u);

    std::size_t checked = 0;
    const auto sweep_outputs = [&](const std::vector<Candidate>& transitions) {
        for (int outputs = 0; outputs < 8; ++outputs) {
            ProtocolBuilder b;
            for (StateId s = 0; s < 3; ++s)
                b.add_state("q" + std::to_string(s), (outputs >> s) & 1);
            b.set_input("x", 0);
            for (const Candidate& t : transitions) b.add_transition(t.p, t.q, t.p2, t.q2);
            const Protocol protocol = std::move(b).build();
            expect_traps_identical(protocol, "outputs mask " + std::to_string(outputs));
            ++checked;
        }
    };

    sweep_outputs({});  // zero non-silent pairs
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        sweep_outputs({candidates[i]});
        for (std::size_t j = i + 1; j < candidates.size(); ++j)
            sweep_outputs({candidates[i], candidates[j]});
    }
    EXPECT_EQ(checked, 8u * (1 + 30 + 30 * 29 / 2));
}

// Regression pinning the determinism contract: the fixpoint genuinely
// depends on the processing order.  A worklist that re-examined freshly
// triggered transitions immediately (plain pop-min, ignoring the
// reference's pass structure) would evict {x, y, z} here; the reference's
// full ascending passes evict {x, y, w}.
TEST(TrapCompute, ScanOrderDependenceFollowsReference) {
    ProtocolBuilder b;
    const StateId x = b.add_state("x", 0);
    const StateId y = b.add_state("y", 0);
    const StateId z = b.add_state("z", 0);
    const StateId w = b.add_state("w", 0);
    const StateId v = b.add_state("v", 1);
    b.set_input("in", x);
    b.add_transition(y, z, x, x);  // t0: violated only once x is evicted
    b.add_transition(x, x, v, v);  // t1: evicts x (v is outside the 0-trap)
    b.add_transition(y, w, v, v);  // t2: evicts y and w in the same pass
    const Protocol protocol = std::move(b).build();

    const std::vector<bool> trap = compute_output_trap(protocol, 0, TrapCompute::worklist);
    EXPECT_FALSE(trap[static_cast<std::size_t>(x)]);
    EXPECT_FALSE(trap[static_cast<std::size_t>(y)]);
    EXPECT_FALSE(trap[static_cast<std::size_t>(w)]);
    // z survives: by the time t0 becomes violated (pass 2), y is already
    // out, so t0 never acts.  Immediate re-examination would kill z instead.
    EXPECT_TRUE(trap[static_cast<std::size_t>(z)]);
    expect_traps_identical(protocol, "scan-order regression");
}

// Randomised protocols over 5 states with up to 8 transitions: plenty of
// multi-rule pairs, chained evictions and dead states.
TEST(TrapCompute, RandomisedFiveStateSweep) {
    Rng rng(0x7a9);
    for (int round = 0; round < 400; ++round) {
        ProtocolBuilder b;
        for (StateId s = 0; s < 5; ++s)
            b.add_state("q" + std::to_string(s), static_cast<int>(rng.below(2)));
        b.set_input("x", 0);
        const int transitions = 1 + static_cast<int>(rng.below(8));
        for (int t = 0; t < transitions; ++t) {
            b.add_transition(static_cast<StateId>(rng.below(5)), static_cast<StateId>(rng.below(5)),
                             static_cast<StateId>(rng.below(5)),
                             static_cast<StateId>(rng.below(5)));
        }
        const Protocol protocol = std::move(b).build();
        expect_traps_identical(protocol, "random round " + std::to_string(round));
    }
}

// The E11 family itself, plus the threshold workhorse and a simulator-level
// equality check (a Simulator seeded with either algorithm must expose the
// same traps and therefore the same trajectories and verdicts).
TEST(TrapCompute, FamiliesAndSimulatorAgree) {
    expect_traps_identical(protocols::double_exp_threshold(6), "double_exp(6)");
    expect_traps_identical(protocols::double_exp_threshold_dense(3), "double_exp_dense(3)");
    expect_traps_identical(protocols::collector_threshold(17), "collector(17)");

    const Protocol p = protocols::double_exp_threshold(5);
    const Simulator worklist(p, PairSelect::automatic, TrapCompute::worklist);
    const Simulator reference(p, PairSelect::automatic, TrapCompute::reference);
    for (int b = 0; b < 2; ++b) EXPECT_EQ(worklist.output_trap(b), reference.output_trap(b));

    Rng rng_w(123), rng_r(123);
    const SimulationResult a = worklist.run_input(40, rng_w);
    const SimulationResult c = reference.run_input(40, rng_r);
    EXPECT_EQ(a.interactions, c.interactions);
    EXPECT_EQ(a.final_config, c.final_config);
    EXPECT_EQ(a.converged, c.converged);
}

TEST(TransitionIncidence, ListsProducersAscendingAndDeduped) {
    ProtocolBuilder b;
    const StateId a = b.add_state("a", 0);
    const StateId c = b.add_state("c", 0);
    const StateId d = b.add_state("d", 1);
    b.set_input("x", a);
    b.add_transition(a, a, c, d);  // t0: produces c, d
    b.add_transition(a, c, d, d);  // t1: produces d (listed once)
    b.add_transition(c, d, a, c);  // t2: produces a, c
    const Protocol p = std::move(b).build();

    const auto as_vector = [](std::span<const TransitionId> span) {
        return std::vector<TransitionId>(span.begin(), span.end());
    };
    EXPECT_EQ(as_vector(p.transitions_producing(a)), (std::vector<TransitionId>{2}));
    EXPECT_EQ(as_vector(p.transitions_producing(c)), (std::vector<TransitionId>{0, 2}));
    EXPECT_EQ(as_vector(p.transitions_producing(d)), (std::vector<TransitionId>{0, 1}));
}

// A trajectory's O(1) stability probes must agree with the counts-based
// probes of its configuration at every checkpoint of long batched
// trajectories, under both pair-selection modes.
TEST(StabilityCounters, ConsistentAlongLongBatchTrajectories) {
    const std::array<Protocol, 2> protocols_under_test = {
        protocols::collector_threshold(32), protocols::double_exp_threshold_dense(3)};
    for (const Protocol& protocol : protocols_under_test) {
        for (const PairSelect select : {PairSelect::fenwick, PairSelect::scan}) {
            const Simulator sim(protocol, select);
            Simulator::Trajectory trajectory(sim, protocol.initial_config(100));
            Rng rng(0xbead);
            bool saw_stable = false;
            for (int checkpoint = 0; checkpoint < 60; ++checkpoint) {
                trajectory.run_batch(rng, 2000);
                const bool stable = trajectory.provably_stable();
                EXPECT_EQ(stable, sim.is_provably_stable(trajectory.config()))
                    << "checkpoint " << checkpoint;
                EXPECT_EQ(trajectory.silent(), sim.is_silent(trajectory.config()))
                    << "checkpoint " << checkpoint;
                saw_stable = saw_stable || stable;
            }
            // Population 100 ≥ both thresholds: the accepting epidemic must
            // have trapped the population within the budget above.
            EXPECT_TRUE(saw_stable);
        }
    }
}

TEST(StabilityCounters, RunBatchStopsWhenStableWithoutChangingTheTrajectory) {
    const Protocol protocol = protocols::collector_threshold(8);
    const Simulator sim(protocol);
    constexpr std::uint64_t kBudget = 50'000'000;

    Config stopped = protocol.initial_config(32);
    Rng rng(77);
    const std::uint64_t done = sim.run_batch(stopped, rng, kBudget, /*stop_when_stable=*/true);
    ASSERT_LT(done, kBudget);
    EXPECT_TRUE(sim.is_provably_stable(stopped));
    EXPECT_EQ(protocol.consensus_output(stopped), 1);

    // Replaying exactly `done` interactions without the early stop lands on
    // the same configuration: stopping is pure observation.
    Config replay = protocol.initial_config(32);
    Rng rng_replay(77);
    EXPECT_EQ(sim.run_batch(replay, rng_replay, done), done);
    EXPECT_EQ(replay, stopped);

    // An already-stable configuration executes nothing under the option.
    Rng rng_again(78);
    EXPECT_EQ(sim.run_batch(stopped, rng_again, kBudget, /*stop_when_stable=*/true), 0u);
}

TEST(StabilityCounters, OscillatorNeverStopsEarly) {
    ProtocolBuilder b;
    const StateId a = b.add_state("A", 1);
    const StateId c = b.add_state("B", 0);
    b.set_input("x", a);
    b.add_transition(a, a, c, c);
    b.add_transition(c, c, a, a);
    const Protocol p = std::move(b).build();
    const Simulator sim(p);
    Config config = p.initial_config(2);
    Rng rng(9);
    EXPECT_EQ(sim.run_batch(config, rng, 4096, /*stop_when_stable=*/true), 4096u);
    EXPECT_FALSE(sim.is_provably_stable(config));
}

// The silence check must agree with a brute-force scan over all state
// pairs whichever candidate set (non-silent pair list vs. support square)
// it picks.
TEST(SilenceCheck, MatchesBruteForceOnRandomConfigurations) {
    const Protocol protocol = protocols::double_exp_threshold_dense(4);
    const Simulator sim(protocol);
    const auto n = static_cast<StateId>(protocol.num_states());
    Rng rng(0x511e);
    for (int round = 0; round < 50; ++round) {
        Config config(protocol.num_states());
        // Mix wide supports (pairs path) and narrow ones (support² path).
        const int occupied = 1 + static_cast<int>(rng.below(round % 2 == 0 ? 3 : n));
        for (int i = 0; i < occupied; ++i)
            config.add(static_cast<StateId>(rng.below(static_cast<std::uint64_t>(n))),
                       1 + static_cast<AgentCount>(rng.below(3)));
        bool brute_silent = true;
        for (StateId p = 0; p < n && brute_silent; ++p) {
            for (StateId q = p; q < n && brute_silent; ++q) {
                const bool enabled =
                    p == q ? config[p] >= 2 : config[p] >= 1 && config[q] >= 1;
                if (enabled && !protocol.pair_is_silent(p, q)) brute_silent = false;
            }
        }
        EXPECT_EQ(sim.is_silent(config), brute_silent) << "round " << round;
    }
}

}  // namespace
}  // namespace ppsc
