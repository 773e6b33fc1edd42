// Flock of birds: "are at least eta birds sick?"
//
//   $ ./flock_of_birds [eta]        (default eta = 1000)
//
// The motivating scenario of the threshold predicate literature (the name
// follows Blondin–Esparza–Jaax [12]): each sick bird carries a sensor with
// a few bits of state; sensors interact in pairs when birds meet; the flock
// must reach consensus on whether the number of sick birds reaches eta.
//
// This example contrasts the state budgets of the library's three
// leaderless constructions and simulates the succinct one at scale.
#include <cstdio>

#include "protocols/threshold.hpp"
#include "sim/simulator.hpp"
#include "support/parse.hpp"

int main(int argc, char** argv) try {
    using namespace ppsc;

    const ParsedInt<AgentCount> parsed =
        parse_integer<AgentCount>(argc > 1 ? argv[1] : "1000", 2, 1ll << 30);
    if (!parsed.ok()) {
        std::fprintf(stderr, "eta must be an integer in [2, 2^30], got '%s'\n", argv[1]);
        return 1;
    }
    const AgentCount eta = parsed.value;

    std::printf("predicate: x >= %lld\n\n", static_cast<long long>(eta));
    std::printf("%-28s %10s\n", "construction", "states");
    std::printf("%-28s %10lld\n", "unary (Example 2.1 P_k)",
                static_cast<long long>(eta + 1));
    long long k = 0;
    while ((AgentCount{1} << (k + 1)) <= eta) ++k;
    std::printf("%-28s %10lld  (only for eta = 2^k)\n", "binary (Example 2.1 P'_k)", k + 2);
    std::printf("%-28s %10zu\n\n", "collector (O(log eta))",
                protocols::collector_threshold_states(eta));

    const Protocol protocol = protocols::collector_threshold(eta);
    const Simulator simulator(protocol);

    std::printf("simulating the collector protocol (seed 1):\n");
    std::printf("%10s %8s %14s %14s\n", "sick birds", "verdict", "interactions",
                "parallel time");
    for (const AgentCount population :
         {eta / 2, eta - 1, eta, eta + 1, 2 * eta, 10 * eta}) {
        if (population < 2) continue;
        Rng rng(1);
        SimulationOptions options;
        options.max_interactions = 400'000'000;
        const SimulationResult result = simulator.run_input(population, rng, options);
        const char* verdict = "timeout";
        if (result.converged && result.output) verdict = *result.output ? "sick!" : "healthy";
        std::printf("%10lld %8s %14llu %14.1f\n", static_cast<long long>(population), verdict,
                    static_cast<unsigned long long>(result.interactions),
                    result.parallel_time);
    }
    std::printf("\nexpected: 'sick!' exactly from %lld birds upward\n",
                static_cast<long long>(eta));
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
