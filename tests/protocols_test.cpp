// Exhaustive verification of every protocol construction in the library.
// These tests are the executable counterpart of the paper's Example 2.1 and
// of the cited constructions of [11, 12]: each family is model-checked on
// all inputs up to a cutoff.
#include <gtest/gtest.h>

#include "protocols/compose.hpp"
#include "protocols/leader.hpp"
#include "protocols/majority.hpp"
#include "protocols/modulo.hpp"
#include "protocols/threshold.hpp"
#include "verify/verifier.hpp"

namespace ppsc {
namespace {

// --- Example 2.1: P_k (unary) ---------------------------------------------

class UnaryThresholdTest : public ::testing::TestWithParam<AgentCount> {};

TEST_P(UnaryThresholdTest, ComputesXAtLeastEta) {
    const AgentCount eta = GetParam();
    const Protocol p = protocols::unary_threshold(eta);
    EXPECT_EQ(p.num_states(), static_cast<std::size_t>(eta) + 1);
    EXPECT_TRUE(p.is_leaderless());
    const Verifier verifier(p);
    EXPECT_TRUE(verifier.check_predicate(Predicate::x_at_least(eta), 2, eta + 4).holds)
        << "eta=" << eta;
}

INSTANTIATE_TEST_SUITE_P(Family, UnaryThresholdTest,
                         ::testing::Values<AgentCount>(1, 2, 3, 4, 5, 6, 8));

// --- Example 2.1: P'_k (binary doubling) -----------------------------------

class BinaryThresholdTest : public ::testing::TestWithParam<int> {};

TEST_P(BinaryThresholdTest, ComputesXAtLeastTwoToK) {
    const int k = GetParam();
    const Protocol p = protocols::binary_threshold_power(k);
    EXPECT_EQ(p.num_states(), static_cast<std::size_t>(k) + 2);
    const AgentCount eta = AgentCount{1} << k;
    const Verifier verifier(p);
    EXPECT_TRUE(verifier.check_predicate(Predicate::x_at_least(eta), 2, eta + 3).holds)
        << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Family, BinaryThresholdTest, ::testing::Values(0, 1, 2, 3));

// --- Collector threshold (O(log eta), arbitrary eta) -----------------------

class CollectorThresholdTest : public ::testing::TestWithParam<AgentCount> {};

TEST_P(CollectorThresholdTest, ComputesXAtLeastEta) {
    const AgentCount eta = GetParam();
    const Protocol p = protocols::collector_threshold(eta);
    EXPECT_EQ(p.num_states(), protocols::collector_threshold_states(eta)) << "eta=" << eta;
    EXPECT_TRUE(p.is_leaderless());
    const Verifier verifier(p);
    EXPECT_TRUE(verifier.check_predicate(Predicate::x_at_least(eta), 2, eta + 3).holds)
        << "eta=" << eta;
}

// Every eta up to 13 exercises all bit patterns: powers of two, all-ones,
// isolated low bits.
INSTANTIATE_TEST_SUITE_P(Family, CollectorThresholdTest,
                         ::testing::Values<AgentCount>(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                                       13));

TEST(CollectorThreshold, StateCountIsLogarithmic) {
    // ~2·log2(eta) states versus eta+1 for unary.
    EXPECT_LE(protocols::collector_threshold_states(1000), 25u);
    EXPECT_LE(protocols::collector_threshold_states((AgentCount{1} << 30) - 1), 70u);
}

TEST(CollectorThreshold, RejectsBadEta) {
    EXPECT_THROW(protocols::collector_threshold(0), std::invalid_argument);
    EXPECT_THROW(protocols::collector_threshold(AgentCount{1} << 41), std::invalid_argument);
    EXPECT_THROW(protocols::unary_threshold(0), std::invalid_argument);
    EXPECT_THROW(protocols::unary_threshold((AgentCount{1} << 10) + 1), std::invalid_argument);
    EXPECT_THROW(protocols::binary_threshold_power(-1), std::invalid_argument);
    EXPECT_THROW(protocols::binary_threshold_power(41), std::invalid_argument);
}

// --- Majority ---------------------------------------------------------------

TEST(Majority, ComputesStrictMajorityOnAllTuples) {
    const Protocol p = protocols::majority();
    EXPECT_EQ(p.num_states(), 4u);
    const Verifier verifier(p);
    const PredicateCheck check =
        verifier.check_predicate_all_tuples(Predicate::majority(), 9);
    EXPECT_TRUE(check.holds) << check.failures.size() << " failing tuples";
    EXPECT_GT(check.inputs_checked, 30u);
}

// --- Modulo -----------------------------------------------------------------

struct ModCase {
    std::int64_t m, r;
};

class ModuloTest : public ::testing::TestWithParam<ModCase> {};

TEST_P(ModuloTest, ComputesCongruence) {
    const auto [m, r] = GetParam();
    const Protocol p = protocols::modulo(m, r);
    EXPECT_EQ(p.num_states(), static_cast<std::size_t>(2 * m));
    const Verifier verifier(p);
    EXPECT_TRUE(verifier.check_predicate(Predicate::modulo({1}, m, r), 2, 11).holds)
        << "m=" << m << " r=" << r;
}

INSTANTIATE_TEST_SUITE_P(Family, ModuloTest,
                         ::testing::Values(ModCase{2, 0}, ModCase{2, 1}, ModCase{3, 0},
                                           ModCase{3, 2}, ModCase{5, 1}));

TEST(Modulo, RejectsBadParameters) {
    EXPECT_THROW(protocols::modulo(1, 0), std::invalid_argument);
    EXPECT_THROW(protocols::modulo(3, 3), std::invalid_argument);
    EXPECT_THROW(protocols::modulo(3, -1), std::invalid_argument);
}

// --- Product composition -----------------------------------------------------

TEST(Product, ThresholdAndParity) {
    // (x >= 2) ∧ (x ≡ 0 mod 2)
    const Protocol p = protocols::product(protocols::unary_threshold(2),
                                          protocols::modulo(2, 0), protocols::combine_and());
    EXPECT_EQ(p.num_states(), 3u * 4u);
    const Verifier verifier(p);
    const Predicate predicate = Predicate::conjunction(Predicate::x_at_least(2),
                                                       Predicate::modulo({1}, 2, 0));
    EXPECT_TRUE(verifier.check_predicate(predicate, 2, 9).holds);
}

TEST(Product, ThresholdOrParity) {
    // (x >= 4) ∨ (x ≡ 1 mod 2)
    const Protocol p = protocols::product(protocols::unary_threshold(4),
                                          protocols::modulo(2, 1), protocols::combine_or());
    const Verifier verifier(p);
    const Predicate predicate = Predicate::disjunction(Predicate::x_at_least(4),
                                                       Predicate::modulo({1}, 2, 1));
    EXPECT_TRUE(verifier.check_predicate(predicate, 2, 9).holds);
}

TEST(Product, RequiresMatchingVariablesAndNoLeaders) {
    const Protocol t = protocols::unary_threshold(2);
    const Protocol m = protocols::majority();  // different variables
    EXPECT_THROW(protocols::product(t, m, protocols::combine_and()), std::invalid_argument);
    const Protocol leader = protocols::leader_threshold(2);
    EXPECT_THROW(protocols::product(t, leader, protocols::combine_and()),
                 std::invalid_argument);
}

// --- Leader protocols ---------------------------------------------------------

class LeaderThresholdTest : public ::testing::TestWithParam<AgentCount> {};

TEST_P(LeaderThresholdTest, ComputesXAtLeastEta) {
    const AgentCount eta = GetParam();
    const Protocol p = protocols::leader_threshold(eta);
    EXPECT_FALSE(p.is_leaderless());
    const Verifier verifier(p);
    // With a leader present the input may be as small as 1.
    EXPECT_TRUE(verifier.check_predicate(Predicate::x_at_least(eta), 1, eta + 3).holds)
        << "eta=" << eta;
}

INSTANTIATE_TEST_SUITE_P(Family, LeaderThresholdTest,
                         ::testing::Values<AgentCount>(1, 2, 3, 5));

struct CascadeCase {
    int base, digits;
};

class CascadeTest : public ::testing::TestWithParam<CascadeCase> {};

TEST_P(CascadeTest, ComputesXAtLeastBaseToDigits) {
    const auto [base, digits] = GetParam();
    const Protocol p = protocols::leader_counter_cascade(base, digits);
    AgentCount eta = 1;
    for (int i = 0; i < digits; ++i) eta *= base;
    const Verifier verifier(p);
    EXPECT_TRUE(verifier.check_predicate(Predicate::x_at_least(eta), 1, eta + 2).holds)
        << "base=" << base << " digits=" << digits;
}

INSTANTIATE_TEST_SUITE_P(Family, CascadeTest,
                         ::testing::Values(CascadeCase{2, 1}, CascadeCase{2, 2},
                                           CascadeCase{2, 3}, CascadeCase{3, 2}));

TEST(Cascade, StateEconomy) {
    // eta = 2^10 = 1024 with ~3·10+4 states: exponentially better than the
    // leaderless unary construction (1025 states).
    const Protocol p = protocols::leader_counter_cascade(2, 10);
    EXPECT_LE(p.num_states(), 35u);
}

TEST(Leader, RejectsBadParameters) {
    EXPECT_THROW(protocols::leader_threshold(0), std::invalid_argument);
    EXPECT_THROW(protocols::leader_threshold((AgentCount{1} << 20) + 1), std::invalid_argument);
    EXPECT_THROW(protocols::leader_counter_cascade(1, 3), std::invalid_argument);
    EXPECT_THROW(protocols::leader_counter_cascade(2, 0), std::invalid_argument);
    EXPECT_THROW(protocols::leader_counter_cascade(2, 25), std::invalid_argument);
}

}  // namespace
}  // namespace ppsc
