// Test oracles for the Diophantine layer: brute-force minimal solutions (with
// the cap at the Pottier bound, Theorem 5.6, the exact Hilbert basis) and
// the realisability constraint rows rebuilt from Protocol::displacement.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/protocol.hpp"
#include "diophantine/pottier.hpp"

namespace ppsc::oracle {

using Vec = std::vector<std::int64_t>;

/// All ≤-minimal non-zero solutions of A·y = 0 with ∥y∥∞ ≤ cap, by
/// enumerating the whole box.
inline std::vector<Vec> brute_force_minimal_equalities(const HomogeneousSystem& system,
                                                       std::int64_t cap) {
    system.validate();
    const auto is_solution = [&](const Vec& y) {
        if (std::ranges::all_of(y, [](std::int64_t c) { return c == 0; })) return false;
        return std::ranges::all_of(system.rows, [&](const Vec& row) {
            std::int64_t sum = 0;
            for (std::size_t j = 0; j < row.size(); ++j) sum += row[j] * y[j];
            return sum == 0;
        });
    };
    std::vector<Vec> solutions;
    Vec y(system.num_vars, 0);
    auto recurse = [&](auto&& self, std::size_t j) -> void {
        if (j == system.num_vars) {
            if (is_solution(y)) solutions.push_back(y);
            return;
        }
        for (std::int64_t c = 0; c <= cap; ++c) {
            y[j] = c;
            self(self, j + 1);
        }
        y[j] = 0;
    };
    recurse(recurse, 0);

    const auto leq = [](const Vec& a, const Vec& b) {
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a[i] > b[i]) return false;
        return true;
    };
    std::vector<Vec> minimal;
    for (const Vec& candidate : solutions) {
        if (std::ranges::none_of(solutions, [&](const Vec& other) {
                return other != candidate && leq(other, candidate);
            }))
            minimal.push_back(candidate);
    }
    return minimal;
}

/// The exact Hilbert basis of A·y = 0, sorted: brute force with the cap at
/// pottier_bound(system), or nullopt when that box [0, bound]^v has more
/// than `max_points` points.
inline std::optional<std::vector<Vec>> exact_hilbert_basis(const HomogeneousSystem& system,
                                                           std::uint64_t max_points) {
    const BigNat bound = pottier_bound(system);
    if (bound > BigNat(max_points)) return std::nullopt;
    const std::uint64_t cap = bound.to_u64();
    std::uint64_t points = 1;
    for (std::size_t j = 0; j < system.num_vars; ++j)
        if ((points *= cap + 1) > max_points) return std::nullopt;
    auto basis = brute_force_minimal_equalities(system, static_cast<std::int64_t>(cap));
    std::sort(basis.begin(), basis.end());
    return basis;
}

/// The system realisable_multiset_basis solves: one row per non-input state
/// q (ascending), holding Δt(q) for every transition t.
inline HomogeneousSystem realisable_system(const Protocol& protocol) {
    HomogeneousSystem system{protocol.num_transitions(), {}};
    for (std::size_t q = 0; q < protocol.num_states(); ++q) {
        if (static_cast<StateId>(q) == protocol.input_state(0)) continue;
        Vec row;
        for (const Transition& t : protocol.transitions()) row.push_back(protocol.displacement(t)[q]);
        system.rows.push_back(std::move(row));
    }
    return system;
}

}  // namespace ppsc::oracle
