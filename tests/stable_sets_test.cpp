// Tests for stable-set computation — the executable form of Section 3.
#include "stable/stable_sets.hpp"

#include <gtest/gtest.h>

#include "oracle/graph.hpp"
#include "protocols/majority.hpp"
#include "protocols/threshold.hpp"

namespace ppsc {
namespace {

Config make_config(const Protocol& p, std::initializer_list<std::pair<const char*, AgentCount>>
                                          counts) {
    Config config(p.num_states());
    for (const auto& [name, count] : counts) config.set(*p.find_state(name), count);
    return config;
}

TEST(StableAnalysis, UnaryThresholdSliceTwoExactClassification) {
    const Protocol p = protocols::unary_threshold(2);
    const StableAnalysis analysis(p, 4);

    EXPECT_EQ(analysis.stability(make_config(p, {{"v2", 2}})), Stability::kStable1);
    EXPECT_EQ(analysis.stability(make_config(p, {{"v0", 2}})), Stability::kStable0);
    EXPECT_EQ(analysis.stability(make_config(p, {{"v0", 1}, {"v1", 1}})), Stability::kStable0);
    // Mixed-output or value-2 configurations are not stable.
    EXPECT_EQ(analysis.stability(make_config(p, {{"v1", 2}})), Stability::kNeither);
    EXPECT_EQ(analysis.stability(make_config(p, {{"v1", 1}, {"v2", 1}})), Stability::kNeither);
    EXPECT_EQ(analysis.stability(make_config(p, {{"v0", 1}, {"v2", 1}})), Stability::kNeither);
}

TEST(StableAnalysis, StableCountsPerSlice) {
    const Protocol p = protocols::unary_threshold(2);
    const StableAnalysis analysis(p, 3);
    const auto counts0 = analysis.stable_counts(0);
    const auto counts1 = analysis.stable_counts(1);
    ASSERT_EQ(counts0.size(), 2u);
    // Size 2: {2·v0}, {v0,v1} are 0-stable; {2·v2} is 1-stable.
    EXPECT_EQ(counts0[0], (std::pair<AgentCount, std::size_t>{2, 2}));
    EXPECT_EQ(counts1[0], (std::pair<AgentCount, std::size_t>{2, 1}));
    // Size 3: value must stay <= 1: {3·v0}, {2·v0, v1}; accept: {3·v2}.
    EXPECT_EQ(counts0[1], (std::pair<AgentCount, std::size_t>{3, 2}));
    EXPECT_EQ(counts1[1], (std::pair<AgentCount, std::size_t>{3, 1}));
}

TEST(StableAnalysis, DownwardClosureHoldsOnFamilies) {
    // Lemma 3.1, checked exhaustively over the bounded region.
    for (AgentCount eta = 2; eta <= 4; ++eta) {
        const StableAnalysis analysis(protocols::unary_threshold(eta), 5);
        EXPECT_EQ(analysis.downward_closure_violation(), std::nullopt) << "unary eta=" << eta;
    }
    const StableAnalysis collector(protocols::collector_threshold(5), 5);
    EXPECT_EQ(collector.downward_closure_violation(), std::nullopt);
    const StableAnalysis maj(protocols::majority(), 6);
    EXPECT_EQ(maj.downward_closure_violation(), std::nullopt);
}

TEST(StableAnalysis, EmpiricalBasisOfAcceptingSet) {
    const Protocol p = protocols::unary_threshold(2);
    const StableAnalysis analysis(p, 6);
    const auto basis = analysis.empirical_basis(1);
    // SC_1 over the region is {k·v2 : k >= 2} = {2·v2} + N^{v2}.
    ASSERT_EQ(basis.size(), 1u);
    EXPECT_EQ(basis[0].base, make_config(p, {{"v2", 2}}));
    ASSERT_EQ(basis[0].pump.size(), 1u);
    EXPECT_EQ(basis[0].pump[0], *p.find_state("v2"));
    EXPECT_EQ(basis[0].norm(), 2);
}

TEST(StableAnalysis, EmpiricalBasisOfRejectingSet) {
    const Protocol p = protocols::unary_threshold(2);
    const StableAnalysis analysis(p, 6);
    const auto basis = analysis.empirical_basis(0);
    // SC_0 = configurations of total value <= 1 without v2:
    //   {2·v0} + N^{v0}  and  {v0,v1} + N^{v0}.
    ASSERT_EQ(basis.size(), 2u);
    for (const auto& element : basis) {
        EXPECT_LE(element.norm(), 2);
        ASSERT_EQ(element.pump.size(), 1u);
        EXPECT_EQ(element.pump[0], *p.find_state("v0"));
    }
}

TEST(StableAnalysis, BasisNormsAreTinyComparedToBeta) {
    // Lemma 3.2 guarantees norm <= 2^(2(2n+1)!+1); empirically the norms of
    // these families are single digits — the gap the paper discusses.
    const StableAnalysis analysis(protocols::collector_threshold(3), 6);
    for (int b = 0; b < 2; ++b) {
        for (const auto& element : analysis.empirical_basis(b)) {
            EXPECT_LE(element.norm(), 6);
        }
    }
}

TEST(StableAnalysis, ClassifiesLikeTheClosureOracle) {
    // SC_b within a slice is the complement of the backward closure of
    // Bad_b, here computed by the deque-BFS oracle.
    const Protocol p = protocols::collector_threshold(3);
    const StableAnalysis analysis(p, 4);
    for (AgentCount population = 2; population <= 4; ++population) {
        for (int b = 0; b < 2; ++b) {
            EXPECT_EQ(analysis.stable_configs(population, b), oracle::stable_configs(p, population, b))
                << "population " << population << ", b = " << b;
        }
    }
}

TEST(StableAnalysis, StabilityQueriesValidateRange) {
    const Protocol p = protocols::unary_threshold(2);
    const StableAnalysis analysis(p, 4);
    EXPECT_THROW(analysis.stability(make_config(p, {{"v0", 9}})), std::invalid_argument);
    EXPECT_THROW(StableAnalysis(p, 1), std::invalid_argument);
    EXPECT_THROW(analysis.empirical_basis(2), std::invalid_argument);
    EXPECT_THROW(analysis.empirical_basis(0, 0), std::invalid_argument);
}

TEST(StableAnalysis, StableConfigsAgreeWithStabilityFlags) {
    const Protocol p = protocols::collector_threshold(3);
    const StableAnalysis analysis(p, 4);
    for (int b = 0; b < 2; ++b) {
        for (const Config& config : analysis.stable_configs(3, b)) {
            EXPECT_TRUE(analysis.is_stable(config, b));
            // A stable configuration is a consensus of b (Definition 2 with
            // C' = C).
            EXPECT_EQ(p.consensus_output(config), b);
        }
    }
}

}  // namespace
}  // namespace ppsc
