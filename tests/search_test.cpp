// Tests for the busy-beaver search (Definition 1, experiment E9).
#include "search/busy_beaver.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ppsc {
namespace {

TEST(BusyBeaverSearch, TwoStatesExhaustive) {
    search::SearchOptions options;
    options.max_input = 8;
    const auto outcome = search::busy_beaver_search(2, options);
    EXPECT_TRUE(outcome.exhaustive);
    // 3 output masks (not all-0) × 3^3 tables.
    EXPECT_EQ(outcome.enumerated, 81u);
    EXPECT_GT(outcome.canonical, 0u);
    EXPECT_GT(outcome.threshold_protocols, 0u);
    // With 2 states the best threshold observed is x >= 3: e.g. input
    // state 0 with output 1, state 1 with output 0, and rules
    // 0,0 -> 0,1 / 0,1 -> 1,1 / 1,1 -> 1,1... the search must find
    // something at least as good as the trivial x >= 2 (all-accepting).
    EXPECT_GE(outcome.best_eta, 2);
    EXPECT_LE(outcome.best_eta, 4);
    EXPECT_FALSE(outcome.best_protocol_text.empty());
}

TEST(BusyBeaverSearch, ThreeStatesExhaustiveMeasuredValue) {
    search::SearchOptions options;
    options.max_input = 9;
    const auto outcome = search::busy_beaver_search(3, options);
    EXPECT_TRUE(outcome.exhaustive);
    // Measured result (experiment E9): among all deterministic
    // 3-state protocols the best threshold is x >= 3, realised by 104
    // canonical protocols.  (Definition 1 also allows nondeterministic
    // protocols, which this enumeration does not cover.)
    EXPECT_EQ(outcome.best_eta, 3);
    // Histogram counts only verified thresholds.
    std::uint64_t total = 0;
    for (const auto& [eta, count] : outcome.eta_histogram) {
        EXPECT_GE(eta, 2);
        total += count;
    }
    EXPECT_EQ(total, outcome.threshold_protocols);
}

TEST(BusyBeaverSearch, SamplingModeWorks) {
    search::SearchOptions options;
    options.max_input = 6;
    options.sample_limit = 2000;
    options.seed = 7;
    const auto outcome = search::busy_beaver_search(4, options);
    EXPECT_FALSE(outcome.exhaustive);
    EXPECT_EQ(outcome.enumerated, 2000u);
}

void expect_same_outcome(const search::SearchOutcome& a, const search::SearchOutcome& b,
                         const std::string& what) {
    EXPECT_EQ(a.n, b.n) << what;
    EXPECT_EQ(a.enumerated, b.enumerated) << what;
    EXPECT_EQ(a.canonical, b.canonical) << what;
    EXPECT_EQ(a.threshold_protocols, b.threshold_protocols) << what;
    EXPECT_EQ(a.budget_skipped, b.budget_skipped) << what;
    EXPECT_EQ(a.best_eta, b.best_eta) << what;
    EXPECT_EQ(a.best_protocol_text, b.best_protocol_text) << what;
    EXPECT_EQ(a.eta_histogram, b.eta_histogram) << what;
    EXPECT_EQ(a.exhaustive, b.exhaustive) << what;
}

TEST(BusyBeaverSearch, ParallelismDoesNotChangeTheOutcome) {
    // Candidates are checked and their inputs verified on the worker pool,
    // then folded in candidate order, so every field — the witness text
    // (the first candidate to reach the maximum) and the histogram
    // included — must equal the serial search's for any worker count.
    // Sizes stay small enough for the sanitizer builds, whose thread
    // checker then covers the pool and the per-candidate skip atomics.
    struct Case {
        std::string name;
        std::size_t n;
        search::SearchOptions options;
        bool finds_thresholds = true;
    };
    std::vector<Case> cases;
    const auto add = [&](std::string name, std::size_t n, AgentCount max_input,
                         std::uint64_t samples) {
        search::SearchOptions options;
        options.max_input = max_input;
        options.sample_limit = samples;
        options.seed = 0x5eed + n;
        cases.push_back({std::move(name), n, options});
    };
    add("exhaustive n = 2", 2, 8, 0);
    add("exhaustive n = 3", 3, 4, 0);  // 80 blocks
    add("sampled n = 4", 4, 10, 600);
    add("sampled n = 5", 5, 10, 600);
    add("sampled n = 5, tight budget", 5, 10, 600);
    cases.back().options.max_nodes_per_graph = 120;
    // Fewer candidates than workers: the input pass runs more workers (one
    // survivor, nine inputs) than the candidate pass, each needing an arena.
    add("3 samples, n = 3", 3, 10, 3);
    cases.back().finds_thresholds = false;
    // A longer horizon under a budget that the largest inputs exceed: most
    // candidates are decided at a low input (ill-specified), so their
    // higher inputs are skipped, while the others run into the budget — a
    // skipped input read by the fold would turn a "no threshold" into a
    // budget skip.
    add("sampled n = 5, horizon 16", 5, 16, 300);
    cases.back().options.max_nodes_per_graph = 1'000;

    for (const Case& c : cases) {
        search::SearchOptions serial = c.options;
        serial.parallelism = 1;
        const search::SearchOutcome reference = search::busy_beaver_search(c.n, serial);
        EXPECT_GT(reference.canonical, 0u) << c.name;
        if (c.finds_thresholds) {
            EXPECT_GT(reference.threshold_protocols, 0u) << c.name;
        }
        if (c.options.max_nodes_per_graph <= 1'000) {
            EXPECT_GT(reference.budget_skipped, 0u) << c.name;
            EXPECT_GT(reference.canonical,
                      reference.budget_skipped + reference.threshold_protocols)
                << c.name << ": no candidate decided before the budget";
        }
        for (const unsigned parallelism : {2u, 4u, 0u}) {
            search::SearchOptions options = c.options;
            options.parallelism = parallelism;
            expect_same_outcome(reference, search::busy_beaver_search(c.n, options),
                                c.name + ", parallelism " + std::to_string(parallelism));
        }
    }
}

TEST(BusyBeaverSearch, ThresholdsAtTheHorizonAreNotCounted) {
    // A threshold at the last checked input is indistinguishable from
    // "accepts nothing below the horizon".  This sample holds a candidate
    // computing x >= 3 on 2..4; on 2..3 its verdicts 0 1 still scan to
    // η = 3 (verify_verifier_test, ThresholdScan), which the search must
    // not count.
    search::SearchOptions options;
    options.sample_limit = 1'500;
    options.seed = 6;
    options.max_input = 4;
    const search::SearchOutcome wide = search::busy_beaver_search(3, options);
    ASSERT_EQ(wide.best_eta, 3);
    options.max_input = 3;
    const search::SearchOutcome at_horizon = search::busy_beaver_search(3, options);
    EXPECT_EQ(at_horizon.best_eta, 2);
    for (const auto& [eta, count] : at_horizon.eta_histogram) EXPECT_LT(eta, 3) << count;
}

TEST(BusyBeaverSearch, ParameterValidation) {
    EXPECT_THROW(search::busy_beaver_search(1, {}), std::invalid_argument);
    EXPECT_THROW(search::busy_beaver_search(4, {}), std::invalid_argument);  // no sample limit
}

}  // namespace
}  // namespace ppsc
