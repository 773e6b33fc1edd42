// Minimal solutions of homogeneous linear Diophantine systems.
//
// Theorem 5.6 of the paper (Pottier [25]): a system A·y ≥ 0 of e equations
// over v variables has a basis of solutions B — every solution is an
// N-combination of elements of B — whose elements satisfy
// ∥m∥₁ ≤ (1 + max_i Σ_j |a_ij|)^e.
//
// This module computes such bases exactly:
//   * for A·y = 0, the Hilbert basis (the set of ≤-minimal non-zero
//     solutions) via the Contejean–Devie completion procedure;
//   * for A·y ≥ 0, a generating basis obtained by adding slack variables
//     (A·y − s = 0), computing the Hilbert basis of the slack system, and
//     projecting onto y.  The projection is a *generating* set by
//     construction; it may contain ≤-comparable elements, because
//     componentwise order on y alone does not imply decomposability.
//
// The Pottier bound itself is computed as an exact BigNat so experiments
// can quote the slack between theory and practice.
//
// The completion carries each frontier vector's residual A·t along and
// derives a child's residual incrementally as r + A·e_j (one column add,
// Θ(e)) rather than recomputing it (Θ(e·v)).  The bases are checked against
// a brute-force enumeration of minimal solutions up to the Pottier bound in
// tests/diophantine_test.cpp and tests/analysis_sparse_test.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "support/bignat.hpp"

namespace ppsc {

/// A homogeneous system: `rows[i]` holds the coefficients of constraint i
/// over `num_vars` variables.
struct HomogeneousSystem {
    std::size_t num_vars = 0;
    std::vector<std::vector<std::int64_t>> rows;

    /// Throws std::invalid_argument on inconsistent row widths.
    void validate() const;
};

/// Theorem 5.6 right-hand side: (1 + max_i Σ_j |a_ij|)^e.
BigNat pottier_bound(const HomogeneousSystem& system);

struct HilbertOptions {
    /// Abort (std::length_error) if a candidate's 1-norm exceeds this; the
    /// Pottier bound guarantees termination below it for sane systems.
    std::int64_t max_norm1 = 1 << 20;
    /// Abort if the frontier grows beyond this many vectors.
    std::size_t max_frontier = 4'000'000;
};

/// Hilbert basis of {y ∈ N^v ∖ {0} : A·y = 0}: all ≤-minimal solutions.
/// Contejean–Devie completion with the scalar-product descent rule.
std::vector<std::vector<std::int64_t>> hilbert_basis_equalities(
    const HomogeneousSystem& system, const HilbertOptions& options = {});

/// Generating basis of {y ∈ N^v ∖ {0} : A·y ≥ 0} via slack variables:
/// every solution is a finite N-sum of returned vectors.
std::vector<std::vector<std::int64_t>> generating_basis_inequalities(
    const HomogeneousSystem& system, const HilbertOptions& options = {});

/// Solutions of the *inhomogeneous* system A·y ≥ b: the solution set is
/// P + M where P is a finite set of ≤-minimal particular solutions and M
/// the generating basis of the homogeneous part (A·y ≥ 0).  Computed by
/// the classic homogenisation: lift to A·y − b·t ≥ 0 over (y, t), take
/// the Hilbert basis of the lifted equality system, and split by t = 1
/// (particulars) / t = 0 (homogeneous directions).  This extends the
/// paper's Definition 4 machinery to protocols *with leaders*, whose
/// realisability system has the constant offset L.
struct InhomogeneousBasis {
    std::vector<std::vector<std::int64_t>> particular;   ///< minimal solutions of A·y ≥ b
    std::vector<std::vector<std::int64_t>> homogeneous;  ///< generators of A·y ≥ 0
};
InhomogeneousBasis solve_inhomogeneous(const HomogeneousSystem& system,
                                       const std::vector<std::int64_t>& offsets,
                                       const HilbertOptions& options = {});

}  // namespace ppsc
