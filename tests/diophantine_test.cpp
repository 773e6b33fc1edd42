// Tests for the Pottier/Hilbert-basis machinery (Theorem 5.6, Corollary
// 5.7), validated against brute-force oracles and classic examples.
#include <gtest/gtest.h>

#include <algorithm>

#include "diophantine/pottier.hpp"
#include "diophantine/realisable.hpp"
#include "oracle/hilbert.hpp"
#include "protocols/threshold.hpp"

namespace ppsc {
namespace {

using Vec = std::vector<std::int64_t>;

bool contains(const std::vector<Vec>& set, const Vec& v) {
    return std::find(set.begin(), set.end(), v) != set.end();
}

TEST(HomogeneousSystem, ValidateRejectsRaggedRows) {
    HomogeneousSystem system;
    system.num_vars = 2;
    system.rows = {{1, -1}, {1}};
    EXPECT_THROW(system.validate(), std::invalid_argument);
}

TEST(PottierBound, MatchesFormula) {
    HomogeneousSystem system;
    system.num_vars = 3;
    system.rows = {{1, -2, 1}, {0, 1, -1}};
    // max row abs sum = 4; bound = 5^2 = 25.
    EXPECT_EQ(pottier_bound(system).to_u64(), 25u);
}

TEST(HilbertBasis, SingleBalanceEquation) {
    // y0 = y1: minimal solution (1,1).
    HomogeneousSystem system;
    system.num_vars = 2;
    system.rows = {{1, -1}};
    const auto basis = hilbert_basis_equalities(system);
    ASSERT_EQ(basis.size(), 1u);
    EXPECT_EQ(basis[0], (Vec{1, 1}));
}

TEST(HilbertBasis, WeightedBalance) {
    // 2·y0 = 3·y1: minimal solution (3,2).
    HomogeneousSystem system;
    system.num_vars = 2;
    system.rows = {{2, -3}};
    const auto basis = hilbert_basis_equalities(system);
    ASSERT_EQ(basis.size(), 1u);
    EXPECT_EQ(basis[0], (Vec{3, 2}));
}

TEST(HilbertBasis, ClassicThreeVariableExample) {
    // y0 + y1 = 2·y2: minimal solutions (2,0,1), (0,2,1), (1,1,1).
    HomogeneousSystem system;
    system.num_vars = 3;
    system.rows = {{1, 1, -2}};
    const auto basis = hilbert_basis_equalities(system);
    EXPECT_EQ(basis.size(), 3u);
    EXPECT_TRUE(contains(basis, {2, 0, 1}));
    EXPECT_TRUE(contains(basis, {0, 2, 1}));
    EXPECT_TRUE(contains(basis, {1, 1, 1}));
}

TEST(HilbertBasis, MatchesBruteForceOnRandomSmallSystems) {
    // Deterministic pseudo-random small systems; oracle caps at norm 6.
    const std::vector<HomogeneousSystem> systems = {
        {3, {{1, -1, 0}, {0, 1, -1}}},
        {3, {{2, -1, -1}}},
        {4, {{1, 1, -1, -1}}},
        {3, {{1, -2, 1}}},
        {4, {{1, -1, 2, -2}, {0, 1, -1, 0}}},
    };
    for (const auto& system : systems) {
        auto fast = hilbert_basis_equalities(system);
        auto slow = oracle::brute_force_minimal_equalities(system, 6);
        std::sort(fast.begin(), fast.end());
        std::sort(slow.begin(), slow.end());
        // Oracle only sees solutions with ∥y∥∞ ≤ 6; every oracle solution
        // must be found, and every found solution within the cap must be in
        // the oracle.
        for (const auto& y : slow) EXPECT_TRUE(contains(fast, y));
        for (const auto& y : fast) {
            if (*std::max_element(y.begin(), y.end()) <= 6) {
                EXPECT_TRUE(contains(slow, y));
            }
        }
    }
}

TEST(HilbertBasis, ElementsRespectPottierBound) {
    const HomogeneousSystem system{4, {{1, 1, -1, -1}, {2, -1, 0, -1}}};
    const BigNat bound = pottier_bound(system);
    for (const auto& y : hilbert_basis_equalities(system)) {
        std::int64_t norm1 = 0;
        for (const auto c : y) norm1 += c;
        EXPECT_TRUE(BigNat(static_cast<std::uint64_t>(norm1)) <= bound);
    }
}

TEST(HilbertBasis, MatchesBruteForceUpToPottierBoundOnClassicExamples) {
    // With the oracle's cap at the Pottier bound, its box holds every
    // minimal solution, so the two bases must be equal; the deep sweeps live
    // in analysis_sparse_test.cpp.
    const std::vector<HomogeneousSystem> systems = {
        {2, {{2, -3}}},
        {3, {{1, 1, -2}}},
        {4, {{1, -1, 2, -2}, {0, 1, -1, 0}}},
    };
    for (const auto& system : systems) {
        const auto exact = oracle::exact_hilbert_basis(system, 10'000'000);
        ASSERT_TRUE(exact.has_value());
        auto basis = hilbert_basis_equalities(system);
        std::sort(basis.begin(), basis.end());
        EXPECT_EQ(basis, *exact);
    }
}

TEST(HilbertBasis, BudgetExhaustionThrows) {
    HomogeneousSystem system;
    system.num_vars = 2;
    system.rows = {{5, -7}};
    HilbertOptions tight;
    tight.max_norm1 = 3;  // the minimal solution (7,5) needs norm 12
    EXPECT_THROW(hilbert_basis_equalities(system, tight), std::length_error);
}

TEST(GeneratingBasis, InequalityBasisGenerates) {
    // y0 ≥ y1 over N²: solutions generated by (1,0) and (1,1).
    HomogeneousSystem system;
    system.num_vars = 2;
    system.rows = {{1, -1}};
    auto basis = generating_basis_inequalities(system);
    std::sort(basis.begin(), basis.end());
    ASSERT_EQ(basis.size(), 2u);
    EXPECT_EQ(basis[0], (Vec{1, 0}));
    EXPECT_EQ(basis[1], (Vec{1, 1}));
}

TEST(GeneratingBasis, TrivialSystemYieldsUnitVectors) {
    // No constraints: every y ∈ N³ is a solution; units generate.
    HomogeneousSystem system;
    system.num_vars = 3;
    auto basis = generating_basis_inequalities(system);
    std::sort(basis.begin(), basis.end());
    ASSERT_EQ(basis.size(), 3u);
    EXPECT_EQ(basis[0], (Vec{0, 0, 1}));
    EXPECT_EQ(basis[1], (Vec{0, 1, 0}));
    EXPECT_EQ(basis[2], (Vec{1, 0, 0}));
}

// --- Inhomogeneous systems (leaders in Definition 4) -------------------------

TEST(Inhomogeneous, SingleConstraintDecomposition) {
    // y0 >= 2: particulars {(2)}, homogeneous generator {(1)}.
    HomogeneousSystem system;
    system.num_vars = 1;
    system.rows = {{1}};
    const auto basis = solve_inhomogeneous(system, {2});
    ASSERT_EQ(basis.particular.size(), 1u);
    EXPECT_EQ(basis.particular[0], (Vec{2}));
    ASSERT_EQ(basis.homogeneous.size(), 1u);
    EXPECT_EQ(basis.homogeneous[0], (Vec{1}));
}

TEST(Inhomogeneous, TwoVariableOffset) {
    // y0 - y1 >= 1: particulars start at (1,0); homogeneous part generated
    // by (1,0) and (1,1).
    HomogeneousSystem system;
    system.num_vars = 2;
    system.rows = {{1, -1}};
    const auto basis = solve_inhomogeneous(system, {1});
    ASSERT_FALSE(basis.particular.empty());
    for (const auto& y : basis.particular) EXPECT_GE(y[0] - y[1], 1);
    // Every solution decomposes: spot-check (4,2) = (2,1)-ish particular +
    // homogeneous sums by direct membership of the recombination space.
    bool found_cover = false;
    for (const auto& p : basis.particular) {
        if (p[0] <= 4 && p[1] <= 2) found_cover = true;
    }
    EXPECT_TRUE(found_cover);
}

TEST(Inhomogeneous, InfeasibleSystemHasNoParticulars) {
    // -y0 >= 1 has no solution in N.
    HomogeneousSystem system;
    system.num_vars = 1;
    system.rows = {{-1}};
    const auto basis = solve_inhomogeneous(system, {1});
    EXPECT_TRUE(basis.particular.empty());
}

TEST(Inhomogeneous, OffsetSizeMismatchThrows) {
    HomogeneousSystem system;
    system.num_vars = 1;
    system.rows = {{1}};
    EXPECT_THROW(solve_inhomogeneous(system, {1, 2}), std::invalid_argument);
}

// --- Corollary 5.7 on actual protocols ---------------------------------------

TEST(RealisableBasis, PottierConstantFormula) {
    const Protocol p = protocols::unary_threshold(2);
    // Non-silent transitions: (0,2)->(2,2), (1,1)->(2,2), (1,2)->(2,2).
    // ξ = 2(2|T|+1)^|Q| = 2·7³ = 686.
    EXPECT_EQ(p.num_transitions(), 3u);
    EXPECT_EQ(pottier_constant(p).to_u64(), 686u);
}

TEST(RealisableBasis, ElementsAreRealisableAndSmall) {
    const Protocol p = protocols::unary_threshold(2);
    const RealisableBasis basis = realisable_multiset_basis(p);
    EXPECT_FALSE(basis.elements.empty());
    std::uint32_t half = 0;
    BigNat half_xi = basis.xi.div_u32(2, half);
    for (std::size_t j = 0; j < basis.elements.size(); ++j) {
        EXPECT_TRUE(is_potentially_realisable(p, basis.elements[j]));
        // Corollary 5.7: |π| ≤ ξ/2.
        EXPECT_TRUE(BigNat(static_cast<std::uint64_t>(parikh_size(basis.elements[j]))) <=
                    half_xi);
        // The recorded result must be a valid configuration.
        for (const auto count : basis.results[j]) EXPECT_GE(count, 0);
    }
}

TEST(RealisableBasis, EveryFiringSequenceParikhDecomposes) {
    // Sanity: the Parikh image of an actual execution is potentially
    // realisable (Lemma 5.1(i) + Definition 4).
    const Protocol p = protocols::collector_threshold(3);
    const RealisableBasis basis = realisable_multiset_basis(p);
    EXPECT_FALSE(basis.elements.empty());
    EXPECT_GT(basis.max_size, 0);
}

TEST(RealisableBasis, SolvesTheDisplacementSystem) {
    // The constraint rows, rebuilt from Protocol::displacement, give the
    // same basis.
    for (const Protocol& p : {protocols::unary_threshold(2), protocols::collector_threshold(3)})
        EXPECT_EQ(realisable_multiset_basis(p).elements,
                  generating_basis_inequalities(oracle::realisable_system(p)));
}

TEST(RealisableBasis, RejectsLeadersAndMultiVariable) {
    ProtocolBuilder b;
    const StateId x = b.add_state("x", 0);
    const StateId l = b.add_state("l", 1);
    b.set_input("x", x);
    b.add_leaders(l, 1);
    const Protocol with_leader = std::move(b).build();
    EXPECT_THROW(realisable_multiset_basis(with_leader), std::invalid_argument);
}

TEST(RealisableBasis, ZeroConcentratedElementLemma58) {
    // For unary_threshold(2), the basis contains an element driving all
    // agents into {v0, v2} (e.g. firing v1,v1 -> v0,v2... which is the
    // doubling transition) — Lemma 5.8's witness for S = {v0, v2}.
    const Protocol p = protocols::unary_threshold(2);
    const RealisableBasis basis = realisable_multiset_basis(p);
    const StateId s[] = {*p.find_state("v0"), *p.find_state("v2")};
    EXPECT_TRUE(zero_concentrated_element(basis, p, s).has_value());
    // No element can put all agents in {v1} while firing at least one
    // transition... the empty multiset is not part of the basis, but a
    // pure-input witness is: S = {v1} admits the trivial direction only if
    // some basis element never leaves the input state; assert the call
    // simply returns a consistent answer.
    const StateId only_input[] = {*p.find_state("v1")};
    const auto witness = zero_concentrated_element(basis, p, only_input);
    if (witness) {
        for (std::size_t q = 0; q < p.num_states(); ++q) {
            if (static_cast<StateId>(q) != only_input[0]) {
                EXPECT_EQ(basis.results[*witness][q], 0);
            }
        }
    }
}

}  // namespace
}  // namespace ppsc
