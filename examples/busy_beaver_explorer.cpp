// Busy-beaver exploration: what is the largest threshold tiny protocols
// can count to?
//
//   $ ./busy_beaver_explorer [n]     (default n = 2; n = 3 takes a few seconds)
//
// Definition 1 of the paper: BB(n) = max { eta : some leaderless n-state
// protocol computes x >= eta }.  This example enumerates every
// deterministic n-state protocol up to state renaming, verifies each
// exhaustively, and prints the census — the experimental floor under the
// paper's Ω(2^n) lower bound and 2^((2n+2)!) upper bound.
#include <cstdio>

#include "bounds/paper_bounds.hpp"
#include "search/busy_beaver.hpp"
#include "support/parse.hpp"

int main(int argc, char** argv) try {
    using namespace ppsc;

    const ParsedInt<std::size_t> parsed =
        parse_integer<std::size_t>(argc > 1 ? argv[1] : "2", 2, 3);
    if (!parsed.ok()) {
        std::fprintf(stderr, "n must be 2 or 3 (exhaustive search), got '%s'\n", argv[1]);
        return 1;
    }
    const std::size_t n = parsed.value;

    search::SearchOptions options;
    options.max_input = n == 2 ? 10 : 12;
    const auto outcome = search::busy_beaver_search(n, options);

    std::printf("busy-beaver search over %zu-state protocols\n", n);
    std::printf("  candidate encodings : %llu\n",
                static_cast<unsigned long long>(outcome.enumerated));
    std::printf("  canonical survivors : %llu\n",
                static_cast<unsigned long long>(outcome.canonical));
    std::printf("  threshold protocols : %llu (verified on inputs 2..%lld)\n",
                static_cast<unsigned long long>(outcome.threshold_protocols),
                static_cast<long long>(options.max_input));
    std::printf("\n  eta   #protocols computing x >= eta\n");
    for (const auto& [eta, count] : outcome.eta_histogram)
        std::printf("  %3lld   %llu\n", static_cast<long long>(eta),
                    static_cast<unsigned long long>(count));

    std::printf("\nempirical BB(%zu) = %lld; witness:\n%s\n", n,
                static_cast<long long>(outcome.best_eta), outcome.best_protocol_text.c_str());

    // Place the measurement between the paper's theorems: it must reach the
    // constructive Ω(2^n) witnesses and sit below the ϑ(n) upper bound.  A
    // measurement below the constructions flags an incomplete search.
    const auto bracket = bounds::busy_beaver_bracket(n, outcome.best_eta);
    std::printf("construction lower bound for BB(%zu): %lld — measurement %s it\n", n,
                static_cast<long long>(bracket.construction_lower),
                bracket.reaches_construction ? "reaches" : "FALLS SHORT OF");
    std::printf("Theorem 5.9 upper bound: %s — measurement %s\n",
                bracket.upper.to_string().c_str(),
                bracket.below_upper ? "respects it" : "EXCEEDS IT");
    return bracket.reaches_construction && bracket.below_upper ? 0 : 1;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
