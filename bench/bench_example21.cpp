// Experiment E1 — Example 2.1 of the paper.
//
// Regenerates the example's quantitative content: P_k computes x >= 2^k
// with 2^k + 1 states, P'_k with the states {0, 2^0..2^k} (k + 2 states;
// the paper's prose says k + 1, one fewer than the state set it lists).  Both are exhaustively verified for small k, and
// their convergence speeds compared under the random scheduler.
#include <cstdio>

#include "protocols/threshold.hpp"
#include "sim/simulator.hpp"
#include "verify/verifier.hpp"

using namespace ppsc;

int main() {
    std::printf("=== E1: Example 2.1 — P_k (unary) vs P'_k (binary doubling) ===\n\n");
    std::printf("%3s %8s %10s %10s %22s\n", "k", "eta=2^k", "|Q| P_k", "|Q| P'_k",
                "exhaustive verification");

    for (int k = 1; k <= 3; ++k) {
        const AgentCount eta = AgentCount{1} << k;
        const Protocol unary = protocols::unary_threshold(eta);
        const Protocol binary = protocols::binary_threshold_power(k);

        const Verifier vu(unary), vb(binary);
        const bool unary_ok = vu.check_predicate(Predicate::x_at_least(eta), 2, eta + 3).holds;
        const bool binary_ok = vb.check_predicate(Predicate::x_at_least(eta), 2, eta + 3).holds;

        std::printf("%3d %8lld %10zu %10zu %11s / %-8s\n", k, static_cast<long long>(eta),
                    unary.num_states(), binary.num_states(), unary_ok ? "P_k OK" : "P_k FAIL",
                    binary_ok ? "P'_k OK" : "P'_k FAIL");
    }
    for (int k = 4; k <= 8; ++k) {
        const AgentCount eta = AgentCount{1} << k;
        std::printf("%3d %8lld %10lld %10d %22s\n", k, static_cast<long long>(eta),
                    static_cast<long long>(eta + 1), k + 2, "(states only)");
    }

    std::printf("\nconvergence under the random scheduler (population 2^k+2, seed 3):\n");
    std::printf("%3s %12s %18s %18s\n", "k", "population", "P_k par. time", "P'_k par. time");
    for (int k = 1; k <= 7; ++k) {
        const AgentCount eta = AgentCount{1} << k;
        const AgentCount population = eta + 2;
        const Simulator su(protocols::unary_threshold(eta));
        const Simulator sb(protocols::binary_threshold_power(k));
        Rng r1(3), r2(3);
        SimulationOptions options;
        options.max_interactions = 100'000'000;
        const SimulationResult ru = su.run_input(population, r1, options);
        const SimulationResult rb = sb.run_input(population, r2, options);
        std::printf("%3d %12lld %18.1f %18.1f\n", k, static_cast<long long>(population),
                    ru.parallel_time, rb.parallel_time);
    }
    std::printf("\nboth families decide x >= 2^k; the binary family pays for its\n"
                "exponentially smaller state count with slower convergence.\n");
    return 0;
}
