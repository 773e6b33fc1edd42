#include "diophantine/pottier.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "support/check.hpp"
#include "support/hash.hpp"

namespace ppsc {

void HomogeneousSystem::validate() const {
    for (const auto& row : rows) {
        if (row.size() != num_vars)
            throw std::invalid_argument("HomogeneousSystem: row width != num_vars");
    }
}

BigNat pottier_bound(const HomogeneousSystem& system) {
    system.validate();
    std::uint64_t max_row_sum = 0;
    for (const auto& row : system.rows) {
        std::uint64_t sum = 0;
        for (const std::int64_t a : row) sum += static_cast<std::uint64_t>(a < 0 ? -a : a);
        max_row_sum = std::max(max_row_sum, sum);
    }
    return BigNat(1 + max_row_sum).pow(system.rows.size());
}

namespace {

using Vec = std::vector<std::int64_t>;

struct VecHash {
    std::size_t operator()(const Vec& v) const noexcept { return hash_int_vector(v); }
};

bool leq(const Vec& a, const Vec& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] > b[i]) return false;
    }
    return true;
}

bool is_zero(const Vec& v) {
    return std::all_of(v.begin(), v.end(), [](std::int64_t x) { return x == 0; });
}

std::int64_t dot(const Vec& a, const Vec& b) {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
    return sum;
}

std::int64_t norm1(const Vec& v) {
    std::int64_t sum = 0;
    for (const std::int64_t x : v) sum += x;
    return sum;
}

}  // namespace

std::vector<Vec> hilbert_basis_equalities(const HomogeneousSystem& system,
                                          const HilbertOptions& options) {
    system.validate();
    const std::size_t v = system.num_vars;
    if (v == 0) return {};

    // Column images A·e_j, used by the Contejean–Devie descent rule.
    std::vector<Vec> column(v, Vec(system.rows.size(), 0));
    for (std::size_t i = 0; i < system.rows.size(); ++i)
        for (std::size_t j = 0; j < v; ++j) column[j][i] = system.rows[i][j];

    std::vector<Vec> basis;
    std::vector<Vec> frontier;
    // residuals[k] = A·frontier[k], carried along instead of recomputed: a
    // unit vector's residual is its column image, and a child's residual is
    // r + A·e_j — one Θ(e) column add per candidate.
    std::vector<Vec> residuals;
    std::unordered_set<Vec, VecHash> seen;
    for (std::size_t j = 0; j < v; ++j) {
        Vec unit(v, 0);
        unit[j] = 1;
        frontier.push_back(unit);
        residuals.push_back(column[j]);
        seen.insert(std::move(unit));
    }

    while (!frontier.empty()) {
        std::vector<Vec> next;
        std::vector<Vec> next_residuals;
        for (std::size_t k = 0; k < frontier.size(); ++k) {
            const Vec& t = frontier[k];
            const Vec& r = residuals[k];
            if (is_zero(r)) {
                // Minimal by construction: any smaller solution would have
                // pruned t before it entered the frontier.
                basis.push_back(t);
                continue;
            }
            for (std::size_t j = 0; j < v; ++j) {
                // Contejean–Devie: only grow along coordinates that move the
                // residual towards the origin.
                if (dot(r, column[j]) >= 0) continue;
                Vec candidate = t;
                candidate[j] += 1;
                if (norm1(candidate) > options.max_norm1)
                    throw std::length_error(
                        "hilbert_basis_equalities: candidate exceeds max_norm1");
                bool dominated = false;
                for (const Vec& b : basis) {
                    if (leq(b, candidate)) {
                        dominated = true;
                        break;
                    }
                }
                if (dominated) continue;
                if (seen.insert(candidate).second) {
                    Vec child_residual = r;
                    for (std::size_t i = 0; i < child_residual.size(); ++i)
                        child_residual[i] += column[j][i];
                    next_residuals.push_back(std::move(child_residual));
                    next.push_back(std::move(candidate));
                }
            }
        }
        if (seen.size() > options.max_frontier)
            throw std::length_error("hilbert_basis_equalities: frontier budget exhausted");
        frontier = std::move(next);
        residuals = std::move(next_residuals);
    }

    // The breadth-first order guarantees minimal solutions are found before
    // any solution dominating them, but two incomparable solutions may both
    // be emitted; filter dominated ones defensively.
    std::vector<Vec> minimal;
    for (const Vec& candidate : basis) {
        bool dominated = false;
        for (const Vec& other : basis) {
            if (&other != &candidate && leq(other, candidate) && other != candidate) {
                dominated = true;
                break;
            }
        }
        if (!dominated) minimal.push_back(candidate);
    }
    return minimal;
}

std::vector<Vec> generating_basis_inequalities(const HomogeneousSystem& system,
                                               const HilbertOptions& options) {
    system.validate();
    // Slack form: A·y − s = 0 with s ≥ 0, one slack per row.
    HomogeneousSystem slack;
    slack.num_vars = system.num_vars + system.rows.size();
    for (std::size_t i = 0; i < system.rows.size(); ++i) {
        Vec row = system.rows[i];
        row.resize(slack.num_vars, 0);
        row[system.num_vars + i] = -1;
        slack.rows.push_back(std::move(row));
    }

    const std::vector<Vec> slack_basis = hilbert_basis_equalities(slack, options);
    std::vector<Vec> projected;
    std::unordered_set<Vec, VecHash> seen;
    for (const Vec& solution : slack_basis) {
        Vec y(solution.begin(), solution.begin() + static_cast<std::ptrdiff_t>(system.num_vars));
        if (is_zero(y)) continue;  // cannot happen: s is determined by y
        if (seen.insert(y).second) projected.push_back(std::move(y));
    }
    return projected;
}

InhomogeneousBasis solve_inhomogeneous(const HomogeneousSystem& system,
                                       const std::vector<std::int64_t>& offsets,
                                       const HilbertOptions& options) {
    system.validate();
    if (offsets.size() != system.rows.size())
        throw std::invalid_argument("solve_inhomogeneous: offsets size != number of rows");

    // Homogenise: A·y − b·t ≥ 0 over (y, t), then slack to equalities.
    HomogeneousSystem lifted;
    lifted.num_vars = system.num_vars + 1;
    for (std::size_t i = 0; i < system.rows.size(); ++i) {
        Vec row = system.rows[i];
        row.push_back(-offsets[i]);
        lifted.rows.push_back(std::move(row));
    }

    InhomogeneousBasis result;
    std::unordered_set<Vec, VecHash> seen_particular, seen_homogeneous;
    for (const Vec& solution : generating_basis_inequalities(lifted, options)) {
        Vec y(solution.begin(), solution.end() - 1);
        const std::int64_t t = solution.back();
        if (t == 0) {
            if (!is_zero(y) && seen_homogeneous.insert(y).second)
                result.homogeneous.push_back(std::move(y));
        } else if (t == 1) {
            if (seen_particular.insert(y).second) result.particular.push_back(std::move(y));
        }
        // t >= 2 elements are sums of smaller ones; not needed for the
        // particular + homogeneous decomposition.
    }

    // Keep only ≤-minimal particular solutions.
    std::vector<Vec> minimal;
    for (const Vec& candidate : result.particular) {
        bool dominated = false;
        for (const Vec& other : result.particular) {
            if (other != candidate && leq(other, candidate)) {
                dominated = true;
                break;
            }
        }
        if (!dominated) minimal.push_back(candidate);
    }
    result.particular = std::move(minimal);
    return result;
}

}  // namespace ppsc
