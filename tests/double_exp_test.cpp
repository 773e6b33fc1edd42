// The double-exponential threshold family (E11 workload): exhaustive
// verification of small instances, fingerprint pins of the collector
// construction, randomized-simulation correctness of the flagship 2^(2^n)
// instances, the parser/compose integration every
// family in src/protocols/ gets, and the tiny end-to-end E11 sweeps (both
// fired-step selection paths, both trap computations).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol_parser.hpp"
#include "protocols/compose.hpp"
#include "protocols/double_exp_threshold.hpp"
#include "protocols/modulo.hpp"
#include "protocols/threshold.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "verify/verifier.hpp"

namespace ppsc {
namespace {

// --- The collector construction ---------------------------------------------

TEST(SuccinctThreshold, CollectorThresholdFingerprintsArePinned) {
    // collector_threshold is succinct_threshold behind an int64 range check;
    // its exhaustive verification (eta <= 13) lives in protocols_test.  The
    // fingerprint hashes names, outputs, transitions in order, inputs and
    // leaders, so these pins hold the emitted protocols byte for byte and
    // keep checkpoints of collector runs resumable.
    const std::pair<AgentCount, std::uint64_t> pins[] = {
        {1, 0x63b6c6cb05a14fadull},
        {2, 0xa9e661a114a6fa5eull},
        {5, 0x35b84957d12f43a9ull},
        {12, 0x302052c53f88dfbfull},
        {13, 0x6d6b8a440a82eaa1ull},
        {96, 0x1c2011d28d364f71ull},
        {1000, 0xf991fa25b0933aefull},
        {(AgentCount{1} << 30) - 1, 0x031938d287129076ull},
        {(AgentCount{1} << 40) - 1, 0xc2bf80a527c485ebull},
    };
    for (const auto& [eta, fingerprint] : pins)
        EXPECT_EQ(protocol_fingerprint(protocols::collector_threshold(eta)), fingerprint)
            << "eta=" << eta;
}

TEST(SuccinctThreshold, RejectsBadEta) {
    EXPECT_THROW(protocols::succinct_threshold(BigNat()), std::invalid_argument);
    EXPECT_THROW(
        protocols::succinct_threshold(BigNat::power_of_two(protocols::kSuccinctThresholdMaxBits)),
        std::invalid_argument);
    EXPECT_THROW(protocols::double_exp_threshold(-1), std::invalid_argument);
    EXPECT_THROW(protocols::double_exp_threshold(18), std::invalid_argument);
    EXPECT_THROW(protocols::double_exp_threshold_dense(0), std::invalid_argument);
    EXPECT_THROW(protocols::double_exp_threshold_dense(14), std::invalid_argument);
}

// --- The double-exponential instances ---------------------------------------

TEST(DoubleExpThreshold, StateCountsAreLogarithmicInEta) {
    for (int n = 0; n <= 8; ++n) {
        const BigNat eta = protocols::double_exp_eta(n);
        EXPECT_EQ(eta.bit_length(), (std::uint64_t{1} << n) + 1) << "n=" << n;  // 2^(2^n)
        // Flagship: exact power, token chain only — |Q| = 2^n + 3.
        EXPECT_EQ(protocols::succinct_threshold_states(eta), (std::size_t{1} << n) + 3)
            << "n=" << n;
        // Dense: a collector per bit of 2^(2^n) − 1 — |Q| = 2^(n+1) + 1.
        if (n >= 1) {
            EXPECT_EQ(protocols::succinct_threshold_states(eta - BigNat(1)),
                      (std::size_t{2} << n) + 1)
                << "n=" << n;
        }
    }
    // The workload the pair-weight Fenwick exists for: a |Q| ≫ 10³ instance
    // with far more non-silent pairs than a scan per fired step could bear.
    const Protocol big = protocols::double_exp_threshold_dense(10);
    EXPECT_GT(big.num_states(), 2000u);
    EXPECT_GT(big.nonsilent_pairs().size(), 500'000u);
}

TEST(DoubleExpThreshold, SmallInstancesVerifyExhaustively) {
    // n = 0 (eta = 2) and n = 1 (eta = 4): model-checked on all inputs.
    for (const int n : {0, 1}) {
        const Protocol p = protocols::double_exp_threshold(n);
        const AgentCount eta = AgentCount{1} << (1 << n);
        const Verifier verifier(p);
        EXPECT_TRUE(verifier.check_predicate(Predicate::x_at_least(eta), 2, eta + 4).holds)
            << "n=" << n;
    }
}

TEST(DoubleExpThreshold, DecidesItsPredicateInRandomizedSimulation) {
    // n = 2: eta = 2^2^2 = 16.  Sampled initial configurations must
    // converge to the correct consensus on both sides of the threshold.
    const Protocol p = protocols::double_exp_threshold(2);
    EXPECT_EQ(p.num_states(), (1u << 2) + 3) << "|Q| = 2^n + 3";
    ConvergenceSweepOptions options;
    options.runs_per_size = 8;
    const auto rows = convergence_sweep(p, {10, 12, 15, 16, 17, 24, 40, 64},
                                        [](AgentCount i) { return i >= 16 ? 1 : 0; }, options);
    ASSERT_EQ(rows.size(), 8u);
    for (const ConvergenceRow& row : rows) {
        EXPECT_EQ(row.converged_runs, row.runs) << "population " << row.population;
        EXPECT_EQ(row.correct_fraction, 1.0) << "population " << row.population;
    }
}

TEST(DoubleExpThreshold, DenseVariantDecidesItsPredicateInRandomizedSimulation) {
    const Protocol p = protocols::double_exp_threshold_dense(2);  // eta = 15
    ConvergenceSweepOptions options;
    options.runs_per_size = 8;
    const auto rows = convergence_sweep(p, {9, 10, 14, 15, 16, 30, 60},
                                        [](AgentCount i) { return i >= 15 ? 1 : 0; }, options);
    ASSERT_EQ(rows.size(), 7u);
    for (const ConvergenceRow& row : rows) {
        EXPECT_EQ(row.converged_runs, row.runs) << "population " << row.population;
        EXPECT_EQ(row.correct_fraction, 1.0) << "population " << row.population;
    }
}

// --- Parser / compose integration -------------------------------------------

TEST(DoubleExpThreshold, RoundTripsThroughTheTextFormat) {
    for (const Protocol& p :
         {protocols::double_exp_threshold_dense(2), protocols::double_exp_threshold(13)}) {
        const std::string text = format_protocol(p);
        ParseReport report;
        const Protocol reparsed = parse_protocol(text, &report);
        EXPECT_EQ(format_protocol(reparsed), text);
        EXPECT_EQ(reparsed.num_states(), p.num_states());
        EXPECT_EQ(reparsed.num_transitions(), p.num_transitions());
        // format_protocol writes the states first and the transitions last,
        // in id order; the parser records those lines.
        const auto lines = static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
        std::vector<std::size_t> state_lines(p.num_states());
        std::vector<std::size_t> transition_lines(p.num_transitions());
        std::iota(state_lines.begin(), state_lines.end(), std::size_t{1});
        std::iota(transition_lines.begin(), transition_lines.end(),
                  lines - p.num_transitions() + 1);
        EXPECT_EQ(report.state_line, state_lines);
        EXPECT_EQ(report.transition_line, transition_lines);
    }
}

TEST(DoubleExpThreshold, ComposesUnderProduct) {
    // (x ≥ 4) ∧ (x ≡ 0 mod 2), with the double-exponential family providing
    // the threshold component — verified exhaustively on the product.
    const Protocol threshold = protocols::double_exp_threshold(1);  // eta = 4
    const Protocol parity = protocols::modulo(2, 0);
    const Protocol both =
        protocols::product(threshold, parity, protocols::combine_and());
    EXPECT_EQ(both.num_states(), threshold.num_states() * parity.num_states());
    const Verifier verifier(both);
    const Predicate predicate = Predicate::conjunction(Predicate::x_at_least(4),
                                                       Predicate::modulo({1}, 2, 0));
    EXPECT_TRUE(verifier.check_predicate(predicate, 2, 7).holds);
}

// --- E11 sweep plumbing ------------------------------------------------------

TEST(E11Sweep, ProducesCompleteRows) {
    struct Shape {
        int tower_n;
        std::vector<AgentCount> populations;
        std::uint64_t interactions;
    };
    for (const Shape& shape : {Shape{3, {64, 256}, 1 << 14}, Shape{4, {512}, 1 << 16}}) {
        E11Options tiny;
        tiny.tower_ns = {shape.tower_n};
        tiny.populations = shape.populations;
        tiny.interactions_per_row = shape.interactions;
        const auto rows = e11_throughput_sweep(tiny);
        // {flagship, dense} × populations
        ASSERT_EQ(rows.size(), 2 * shape.populations.size());
        for (const ThroughputRow& row : rows) {
            EXPECT_EQ(row.interactions, tiny.interactions_per_row) << row.protocol;
            EXPECT_GT(row.num_states, 8u) << row.protocol;
            EXPECT_GT(row.interactions_per_sec, 0.0) << row.protocol;
        }
    }
}

TEST(E11Sweep, ReferenceTrapComputationDrivesTheWorkloadIdentically) {
    // The reference trap fixpoint must still build and drive a convergence
    // sweep, and the worklist must produce identical traps and identical
    // convergence rows.
    const Protocol p = protocols::double_exp_threshold(3);
    const Simulator worklist(p, PairSelect::automatic, TrapCompute::worklist);
    const Simulator reference(p, PairSelect::automatic, TrapCompute::reference);
    for (int b = 0; b < 2; ++b)
        EXPECT_EQ(worklist.output_trap(b), reference.output_trap(b)) << "trap " << b;

    ConvergenceSweepOptions options;
    options.runs_per_size = 4;
    options.trap_compute = TrapCompute::reference;
    const auto ref_rows = convergence_sweep(
        p, {200, 256, 300}, [](AgentCount i) { return i >= 256 ? 1 : 0; }, options);
    options.trap_compute = TrapCompute::worklist;
    const auto wl_rows = convergence_sweep(
        p, {200, 256, 300}, [](AgentCount i) { return i >= 256 ? 1 : 0; }, options);
    ASSERT_EQ(ref_rows.size(), wl_rows.size());
    for (std::size_t i = 0; i < ref_rows.size(); ++i) {
        EXPECT_EQ(ref_rows[i].converged_runs, wl_rows[i].converged_runs);
        EXPECT_EQ(ref_rows[i].mean_parallel_time, wl_rows[i].mean_parallel_time);
        EXPECT_EQ(ref_rows[i].correct_fraction, wl_rows[i].correct_fraction);
    }
}

}  // namespace
}  // namespace ppsc
