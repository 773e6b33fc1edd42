// The statistical harness must itself be trustworthy before anything is
// proved with it: critical values against the classic table, the analytic
// inversion against the pinned rows, detection power (wrong distributions
// must FAIL), and the new Rng samplers (binomial/poisson/gamma/negative
// binomial) against their exact laws — all with fixed, derived seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"
#include "stat_test.hpp"

namespace ppsc {
namespace {

TEST(StatHarness, CriticalValuesMatchTheClassicTable) {
    // Spot checks straight from the χ² table (3 significant decimals).
    EXPECT_NEAR(stat::chi_squared_critical(1, 0.05), 3.841, 1e-3);
    EXPECT_NEAR(stat::chi_squared_critical(2, 0.01), 9.210, 1e-3);
    EXPECT_NEAR(stat::chi_squared_critical(10, 0.05), 18.307, 1e-3);
    EXPECT_NEAR(stat::chi_squared_critical(14, 0.001), 36.123, 1e-3);
    EXPECT_NEAR(stat::chi_squared_critical(15, 0.001), 37.697, 1e-3);
}

TEST(StatHarness, AnalyticInversionAgreesWithThePinnedTable) {
    // Off-table (df, α) pairs go through the incomplete-gamma inversion;
    // on-table pairs must agree with it to the table's precision — the
    // pinned rows double as a regression anchor for the analytic path.
    for (int df = 1; df <= 15; ++df) {
        for (const double alpha : {0.05, 0.01, 0.001}) {
            const double table = stat::chi_squared_critical(df, alpha);
            // Force the analytic path with an α infinitesimally off-table.
            const double analytic = stat::chi_squared_critical(df, alpha * (1.0 + 1e-9));
            EXPECT_NEAR(analytic, table, 2e-3) << "df=" << df << " alpha=" << alpha;
        }
    }
    // And beyond the table: χ²(30) at α=0.001 ≈ 59.703, χ²(100) at 0.05 ≈ 124.342.
    EXPECT_NEAR(stat::chi_squared_critical(30, 0.001), 59.703, 2e-2);
    EXPECT_NEAR(stat::chi_squared_critical(100, 0.05), 124.342, 2e-2);
}

TEST(StatHarness, SurvivalFunctionAndQuantilesAreConsistent) {
    // sf(critical(df, α)) == α by construction; normal quantile spot values.
    for (const int df : {1, 2, 5, 14, 40, 200}) {
        for (const double alpha : {0.2, 0.01, 1e-4}) {
            const double crit = stat::chi_squared_critical(df, alpha);
            EXPECT_NEAR(stat::chi_squared_sf(df, crit), alpha, alpha * 1e-2 + 1e-12)
                << "df=" << df;
        }
    }
    EXPECT_NEAR(stat::normal_quantile(0.975), 1.959964, 1e-5);
    EXPECT_NEAR(stat::normal_quantile(0.999), 3.090232, 1e-5);
    EXPECT_NEAR(stat::normal_quantile(0.5), 0.0, 1e-9);
    EXPECT_NEAR(stat::normal_quantile(0.025), -1.959964, 1e-5);
}

TEST(StatHarness, BonferroniAndSeedDerivation) {
    EXPECT_DOUBLE_EQ(stat::bonferroni(0.01, 10), 0.001);
    EXPECT_DOUBLE_EQ(stat::bonferroni(0.05, 1), 0.05);
    // Deterministic, label-sensitive, base-sensitive.
    EXPECT_EQ(stat::derive_seed(7, "a"), stat::derive_seed(7, "a"));
    EXPECT_NE(stat::derive_seed(7, "a"), stat::derive_seed(7, "b"));
    EXPECT_NE(stat::derive_seed(7, "a"), stat::derive_seed(8, "a"));
}

TEST(StatHarness, GofAcceptsTheTrueLawAndRejectsAWrongOne) {
    // Multinomial draws from the true weights must pass; the same counts
    // against visibly wrong weights must fail.  (Power check: a harness
    // that never rejects proves nothing.)
    Rng rng(stat::derive_seed(1002, "gof-power"));
    const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 10.0};
    std::vector<std::uint64_t> counts(weights.size(), 0);
    const double total = 20.0;
    for (int i = 0; i < 20'000; ++i) {
        double r = rng.uniform() * total;
        for (std::size_t j = 0; j < weights.size(); ++j) {
            if (r < weights[j] || j + 1 == weights.size()) {
                ++counts[j];
                break;
            }
            r -= weights[j];
        }
    }
    EXPECT_TRUE(stat::chi_squared_gof(counts, weights).pass);
    const std::vector<double> wrong = {2.0, 2.0, 3.0, 4.0, 9.0};
    EXPECT_FALSE(stat::chi_squared_gof(counts, wrong).pass);
}

TEST(StatHarness, GofPoolsSparseCells) {
    // A heavy head with a long thin tail: tail cells pool into one, the
    // statistic stays finite and the df reflects the pooled cell count.
    std::vector<double> weights = {1000.0, 1000.0};
    std::vector<std::uint64_t> counts = {1000, 1000};
    for (int i = 0; i < 10; ++i) {
        weights.push_back(0.1);  // expected ≈ 0.2 each — far below min_expected
        counts.push_back(i == 0 ? 2u : 0u);
    }
    const stat::GofResult gof = stat::chi_squared_gof(counts, weights);
    EXPECT_EQ(gof.cells, 3u);  // two heavy cells + one pooled tail
    EXPECT_EQ(gof.df, 2);
    EXPECT_TRUE(gof.pass);
}

TEST(StatHarness, TwoSampleTestsSeparateEqualFromShifted) {
    Rng rng(stat::derive_seed(1003, "two-sample"));
    const auto draw = [&rng](double shift, double scale, std::size_t n) {
        std::vector<double> xs(n);
        for (double& x : xs) x = shift + scale * rng.normal();
        return xs;
    };
    const std::vector<double> a = draw(10.0, 2.0, 2000);
    const std::vector<double> b = draw(10.0, 2.0, 2000);
    const std::vector<double> shifted = draw(10.4, 2.0, 2000);   // ≈ 6σ of the mean SE
    const std::vector<double> spread = draw(10.0, 2.6, 2000);    // variance 4 → 6.8

    const auto ma = stat::sample_moments(a);
    const auto mb = stat::sample_moments(b);
    EXPECT_TRUE(stat::mean_equivalence_test(ma, mb).pass);
    EXPECT_TRUE(stat::variance_equivalence_test(ma, mb).pass);
    EXPECT_TRUE(stat::ks_two_sample(a, b).pass);

    EXPECT_FALSE(stat::mean_equivalence_test(ma, stat::sample_moments(shifted)).pass);
    EXPECT_FALSE(stat::variance_equivalence_test(ma, stat::sample_moments(spread)).pass);
    EXPECT_FALSE(stat::ks_two_sample(a, shifted).pass);
}

// ---------------------------------------------------------------------------
// The Rng samplers the epoch path is built on.

TEST(StatHarness, BinomialMatchesTheExactPmfOnBothAlgorithms) {
    // n·p = 4.5 exercises the inversion path, n·p = 300 the BTRS rejection
    // path; both must fit the exact pmf (via lgamma) under chi-squared.
    struct Case {
        std::uint64_t n;
        double p;
        const char* label;
    };
    for (const Case c : {Case{30, 0.15, "inversion"}, Case{1000, 0.3, "btrs"}}) {
        Rng rng(stat::derive_seed(1004, c.label));
        std::vector<std::uint64_t> counts(c.n + 1, 0);
        for (int i = 0; i < 40'000; ++i) {
            const std::uint64_t k = rng.binomial(c.n, c.p);
            ASSERT_LE(k, c.n);
            ++counts[k];
        }
        std::vector<double> pmf(c.n + 1);
        const double nd = static_cast<double>(c.n);
        for (std::uint64_t k = 0; k <= c.n; ++k) {
            const double kd = static_cast<double>(k);
            pmf[k] = std::exp(std::lgamma(nd + 1) - std::lgamma(kd + 1) -
                              std::lgamma(nd - kd + 1) + kd * std::log(c.p) +
                              (nd - kd) * std::log1p(-c.p));
        }
        const stat::GofResult gof = stat::chi_squared_gof(counts, pmf);
        EXPECT_TRUE(gof.pass) << c.label << ": X² = " << gof.statistic << " > " << gof.critical;
    }
}

TEST(StatHarness, BinomialEdgeCases) {
    Rng rng(stat::derive_seed(1005, "binomial-edges"));
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
    EXPECT_EQ(rng.binomial(100, 0.0), 0u);
    EXPECT_EQ(rng.binomial(100, 1.0), 100u);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t k = rng.binomial(7, 0.999);  // reflection path
        EXPECT_LE(k, 7u);
    }
    // Large-n sanity: mean within 5 SE.
    const std::uint64_t n = std::uint64_t{1} << 40;
    double sum = 0.0;
    const int reps = 200;
    for (int i = 0; i < reps; ++i) sum += static_cast<double>(rng.binomial(n, 0.25));
    const double nd = static_cast<double>(n);
    const double se = std::sqrt(nd * 0.25 * 0.75 / reps);
    EXPECT_NEAR(sum / reps, nd * 0.25, 5.0 * se);
}

TEST(StatHarness, PoissonMatchesTheExactPmfOnBothAlgorithms) {
    for (const double lambda : {3.5, 40.0}) {  // inversion, then PTRS
        Rng rng(stat::derive_seed(1006, lambda < 10 ? "poisson-inv" : "poisson-ptrs"));
        const std::size_t cap = static_cast<std::size_t>(lambda * 3 + 30);
        std::vector<std::uint64_t> counts(cap + 1, 0);
        for (int i = 0; i < 40'000; ++i) {
            const std::uint64_t k = rng.poisson(lambda);
            ++counts[std::min<std::uint64_t>(k, cap)];
        }
        std::vector<double> pmf(cap + 1, 0.0);
        double tail = 1.0;
        for (std::size_t k = 0; k < cap; ++k) {
            const double kd = static_cast<double>(k);
            pmf[k] = std::exp(kd * std::log(lambda) - lambda - std::lgamma(kd + 1));
            tail -= pmf[k];
        }
        pmf[cap] = std::max(tail, 0.0);
        const stat::GofResult gof = stat::chi_squared_gof(counts, pmf);
        EXPECT_TRUE(gof.pass) << "lambda = " << lambda << ": X² = " << gof.statistic;
    }
}

TEST(StatHarness, GammaAndNegativeBinomialMoments) {
    // Gamma(k, 1): mean k, variance k.  NB(k, p): mean k(1−p)/p, variance
    // k(1−p)/p².  Moment checks within 5 SE at fixed seeds.
    Rng rng(stat::derive_seed(1007, "gamma-nb-moments"));
    const int reps = 40'000;
    for (const double shape : {1.0, 4.0, 1000.0}) {
        double sum = 0.0;
        double sq = 0.0;
        for (int i = 0; i < reps; ++i) {
            const double g = rng.gamma(shape);
            ASSERT_GT(g, 0.0);
            sum += g;
            sq += g * g;
        }
        const double mean = sum / reps;
        const double var = sq / reps - mean * mean;
        // SE of the mean is √(shape/reps); variance estimates are noisier
        // (kurtosis 3 + 6/shape), a 10% band is ≥ 6 SE for these shapes.
        EXPECT_NEAR(mean, shape, 5.0 * std::sqrt(shape / reps)) << "shape " << shape;
        EXPECT_NEAR(var, shape, 0.1 * shape) << "shape " << shape;
    }
    const std::uint64_t k = 50;
    const double p = 0.2;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < reps; ++i) {
        const double x = static_cast<double>(rng.negative_binomial(k, p));
        sum += x;
        sq += x * x;
    }
    const double mean = sum / reps;
    const double var = sq / reps - mean * mean;
    const double expect_mean = k * (1.0 - p) / p;             // 200
    const double expect_var = k * (1.0 - p) / (p * p);        // 1000
    EXPECT_NEAR(mean, expect_mean, 5.0 * std::sqrt(expect_var / reps));
    EXPECT_NEAR(var, expect_var, 0.1 * expect_var);
    // Degenerate p = 1: zero failures, always.
    EXPECT_EQ(rng.negative_binomial(10, 1.0), 0u);
}

}  // namespace
}  // namespace ppsc
