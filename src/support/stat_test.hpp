// Statistical-equivalence test harness.
//
// Epoch-batched stepping (sim/simulator.hpp, StepMode::epoch) is
// *distribution*-identical to the per-step reference rather than
// trajectory-identical, so its correctness argument is statistical: fixed
// seeds, explicit significance levels, and tests that compare realized
// samples against either a known law (chi-squared goodness-of-fit) or a
// reference sample (two-sample mean/variance/Kolmogorov-Smirnov tests).
// This header is that shared vocabulary — used by tests/support_stats/ and
// the migrated pair-selection chi-squared test.
//
// Design rules, so CI stays flake-free:
//   * Every test is deterministic: seeds derive from a fixed base via
//     derive_seed(), never from time or global state.
//   * Significance levels are explicit and conservative (default α = 10⁻³)
//     and multi-test suites divide α through bonferroni() — a suite of m
//     tests at family level α runs each test at α/m.
//   * Critical values come from a pinned table (the classic chi-squared
//     quantiles, doubling as a regression anchor for the analytic path)
//     with an analytic fallback — the regularized incomplete gamma
//     function, inverted by bisection — for any (df, α) off the table.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "support/check.hpp"

namespace ppsc::stat {

// ---------------------------------------------------------------------------
// Deterministic seeding

/// Derives a per-case seed from a base seed and a label, SplitMix64-style:
/// stable across platforms and runs, so every statistical test names its
/// stream explicitly instead of slicing a shared one.
inline std::uint64_t derive_seed(std::uint64_t base, std::string_view label) noexcept {
    std::uint64_t h = base ^ 0x9e3779b97f4a7c15ull;
    for (const char ch : label) {
        h ^= static_cast<std::uint8_t>(ch);
        h *= 0x100000001b3ull;  // FNV-1a fold, then a SplitMix64 finalizer
    }
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

/// Per-test significance for m tests at family-wise level `family_alpha`
/// (Bonferroni correction).
constexpr double bonferroni(double family_alpha, int tests) noexcept {
    return tests <= 1 ? family_alpha : family_alpha / tests;
}

// ---------------------------------------------------------------------------
// Distribution functions

/// Quantile of the standard normal (Acklam's rational approximation,
/// |relative error| < 1.2e-9 over (0, 1)).
inline double normal_quantile(double p) {
    PPSC_CHECK(p > 0.0 && p < 1.0);
    static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                   -2.759285104469687e+02, 1.383577518672690e+02,
                                   -3.066479806614716e+01, 2.506628277459239e+00};
    static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                   -1.556989798598866e+02, 6.680131188771972e+01,
                                   -1.328068155288572e+01};
    static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                   -2.400758277161838e+00, -2.549732539343734e+00,
                                   4.374664141464968e+00,  2.938163982698783e+00};
    static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                   2.445134137142996e+00, 3.754408661907416e+00};
    constexpr double p_low = 0.02425;
    if (p < p_low) {
        const double q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p > 1.0 - p_low) return -normal_quantile(1.0 - p);
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

/// Regularized lower incomplete gamma P(a, x) (series for x < a+1,
/// continued fraction beyond — the Numerical-Recipes split).
inline double regularized_gamma_p(double a, double x) {
    PPSC_CHECK(a > 0.0 && x >= 0.0);
    if (x == 0.0) return 0.0;
    const double log_prefix = a * std::log(x) - x - std::lgamma(a);
    if (x < a + 1.0) {
        // Series: P(a,x) = e^{-x} x^a / Γ(a) · Σ x^n / (a(a+1)...(a+n)).
        double term = 1.0 / a;
        double sum = term;
        for (int n = 1; n < 10000; ++n) {
            term *= x / (a + n);
            sum += term;
            if (std::fabs(term) < std::fabs(sum) * 1e-15) break;
        }
        return std::exp(log_prefix) * sum;
    }
    // Lentz continued fraction for Q(a,x); P = 1 − Q.
    constexpr double tiny = 1e-300;
    double b = x + 1.0 - a;
    double c = 1.0 / tiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i < 10000; ++i) {
        const double an = -i * (i - a);
        b += 2.0;
        d = an * d + b;
        if (std::fabs(d) < tiny) d = tiny;
        c = b + an / c;
        if (std::fabs(c) < tiny) c = tiny;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::fabs(delta - 1.0) < 1e-15) break;
    }
    return 1.0 - std::exp(log_prefix) * h;
}

/// Right-tail probability of the chi-squared distribution:
/// P[X ≥ x] for X ~ χ²(df).
inline double chi_squared_sf(int df, double x) {
    PPSC_CHECK(df >= 1);
    if (x <= 0.0) return 1.0;
    return 1.0 - regularized_gamma_p(0.5 * df, 0.5 * x);
}

namespace detail {
/// Pinned upper critical values of χ²(df) at the suite's canonical levels —
/// the classic table rows, kept both as the fast path and as a regression
/// anchor the analytic inversion is tested against.
struct ChiSquaredRow {
    double q050;  // α = 0.05
    double q010;  // α = 0.01
    double q001;  // α = 0.001
};
inline constexpr ChiSquaredRow kChiSquaredTable[] = {
    /* df=1  */ {3.841, 6.635, 10.828},
    /* df=2  */ {5.991, 9.210, 13.816},
    /* df=3  */ {7.815, 11.345, 16.266},
    /* df=4  */ {9.488, 13.277, 18.467},
    /* df=5  */ {11.070, 15.086, 20.515},
    /* df=6  */ {12.592, 16.812, 22.458},
    /* df=7  */ {14.067, 18.475, 24.322},
    /* df=8  */ {15.507, 20.090, 26.124},
    /* df=9  */ {16.919, 21.666, 27.877},
    /* df=10 */ {18.307, 23.209, 29.588},
    /* df=11 */ {19.675, 24.725, 31.264},
    /* df=12 */ {21.026, 26.217, 32.909},
    /* df=13 */ {22.362, 27.688, 34.528},
    /* df=14 */ {23.685, 29.141, 36.123},
    /* df=15 */ {24.996, 30.578, 37.697},
};
}  // namespace detail

/// Upper critical value of χ²(df) at significance `alpha`: the x with
/// P[X ≥ x] = alpha.  Table-backed at the canonical levels for df ≤ 15,
/// inverted from the survival function (bisection) elsewhere.
inline double chi_squared_critical(int df, double alpha = 1e-3) {
    PPSC_CHECK(df >= 1 && alpha > 0.0 && alpha < 1.0);
    constexpr auto near = [](double x, double y) { return std::fabs(x - y) < 1e-12; };
    const auto table_rows =
        static_cast<int>(sizeof(detail::kChiSquaredTable) / sizeof(detail::ChiSquaredRow));
    if (df <= table_rows) {
        const auto& row = detail::kChiSquaredTable[df - 1];
        if (near(alpha, 0.05)) return row.q050;
        if (near(alpha, 0.01)) return row.q010;
        if (near(alpha, 0.001)) return row.q001;
    }
    // Bisection on the (monotone) survival function; the Wilson-Hilferty
    // normal approximation brackets the root.
    const double z = normal_quantile(1.0 - alpha);
    const double wh_core = 1.0 - 2.0 / (9.0 * df) + z * std::sqrt(2.0 / (9.0 * df));
    double guess = df * wh_core * wh_core * wh_core;
    if (!(guess > 0.0)) guess = 1.0;
    double lo = guess;
    double hi = guess;
    while (chi_squared_sf(df, lo) < alpha) lo *= 0.5;
    while (chi_squared_sf(df, hi) > alpha) hi *= 2.0;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (chi_squared_sf(df, mid) > alpha) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-10 * (1.0 + hi)) break;
    }
    return 0.5 * (lo + hi);
}

// ---------------------------------------------------------------------------
// Chi-squared goodness-of-fit

struct GofResult {
    double statistic = 0.0;  ///< Pearson X² over the (pooled) cells
    int df = 0;              ///< pooled cells − 1
    double critical = 0.0;   ///< χ²(df) upper critical value at alpha
    double p_value = 1.0;    ///< right-tail probability of the statistic
    std::size_t cells = 0;   ///< cells after pooling
    bool pass = false;       ///< statistic ≤ critical
};

/// Pearson chi-squared goodness-of-fit of observed counts against expected
/// cell weights (any positive scale — normalized internally).  Cells whose
/// expected count falls under `min_expected` are pooled into one, keeping
/// the asymptotic χ² approximation honest for sparse tails.  Requires at
/// least two effective cells.
inline GofResult chi_squared_gof(std::span<const std::uint64_t> observed,
                                 std::span<const double> weights, double alpha = 1e-3,
                                 double min_expected = 5.0) {
    PPSC_CHECK(observed.size() == weights.size() && !observed.empty());
    std::uint64_t total_count = 0;
    double total_weight = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        PPSC_CHECK(weights[i] >= 0.0);
        total_count += observed[i];
        total_weight += weights[i];
    }
    PPSC_CHECK(total_count > 0 && total_weight > 0.0);
    const double scale = static_cast<double>(total_count) / total_weight;

    GofResult result;
    double pooled_observed = 0.0;
    double pooled_expected = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double expected = weights[i] * scale;
        if (expected < min_expected) {
            pooled_observed += static_cast<double>(observed[i]);
            pooled_expected += expected;
            continue;
        }
        const double diff = static_cast<double>(observed[i]) - expected;
        result.statistic += diff * diff / expected;
        ++result.cells;
    }
    if (pooled_expected > 0.0) {
        const double diff = pooled_observed - pooled_expected;
        result.statistic += diff * diff / pooled_expected;
        ++result.cells;
    }
    PPSC_CHECK_MSG(result.cells >= 2, "chi-squared needs at least two effective cells");
    result.df = static_cast<int>(result.cells) - 1;
    result.critical = chi_squared_critical(result.df, alpha);
    result.p_value = chi_squared_sf(result.df, result.statistic);
    result.pass = result.statistic <= result.critical;
    return result;
}

// ---------------------------------------------------------------------------
// Two-sample tests

struct SampleMoments {
    std::size_t n = 0;
    double mean = 0.0;
    double variance = 0.0;  ///< unbiased (n−1 denominator)
    double m4 = 0.0;        ///< fourth central moment (for the variance test)
};

/// One pass of central moments up to order four.
inline SampleMoments sample_moments(std::span<const double> xs) {
    PPSC_CHECK(xs.size() >= 2);
    SampleMoments m;
    m.n = xs.size();
    double sum = 0.0;
    for (const double x : xs) sum += x;
    m.mean = sum / static_cast<double>(m.n);
    double s2 = 0.0;
    double s4 = 0.0;
    for (const double x : xs) {
        const double d = x - m.mean;
        s2 += d * d;
        s4 += d * d * d * d;
    }
    m.variance = s2 / static_cast<double>(m.n - 1);
    m.m4 = s4 / static_cast<double>(m.n);
    return m;
}

struct TwoSampleResult {
    double statistic = 0.0;  ///< |z| (moment tests) or the KS statistic
    double critical = 0.0;
    bool pass = false;  ///< statistic ≤ critical, i.e. "no detectable difference"
};

/// Large-sample two-sided test of equal means (Welch's z: no equal-variance
/// or normality assumption — the standard error comes from the data).
inline TwoSampleResult mean_equivalence_test(const SampleMoments& a, const SampleMoments& b,
                                             double alpha = 1e-3) {
    TwoSampleResult r;
    const double se2 = a.variance / static_cast<double>(a.n) +  //
                       b.variance / static_cast<double>(b.n);
    PPSC_CHECK(se2 > 0.0);
    r.statistic = std::fabs(a.mean - b.mean) / std::sqrt(se2);
    r.critical = normal_quantile(1.0 - 0.5 * alpha);
    r.pass = r.statistic <= r.critical;
    return r;
}

/// Large-sample two-sided test of equal variances.  Var[s²] ≈ (μ₄ − σ⁴)/n
/// — estimated from each sample's own fourth moment, so heavy-tailed
/// convergence-time distributions are handled without normality
/// assumptions (an F-test would not be).
inline TwoSampleResult variance_equivalence_test(const SampleMoments& a, const SampleMoments& b,
                                                 double alpha = 1e-3) {
    TwoSampleResult r;
    const double va = std::max(a.m4 - a.variance * a.variance, 0.0) / static_cast<double>(a.n);
    const double vb = std::max(b.m4 - b.variance * b.variance, 0.0) / static_cast<double>(b.n);
    const double se2 = va + vb;
    PPSC_CHECK(se2 > 0.0);
    r.statistic = std::fabs(a.variance - b.variance) / std::sqrt(se2);
    r.critical = normal_quantile(1.0 - 0.5 * alpha);
    r.pass = r.statistic <= r.critical;
    return r;
}

/// Two-sample Kolmogorov-Smirnov test (asymptotic critical value
/// c(α)·√((n+m)/(n·m)) with c(α) = √(−ln(α/2)/2)) — sensitive to any
/// distributional difference, not just the first two moments.  Sorts
/// copies; samples of a few hundred to a few thousand are the intended
/// scale.
inline TwoSampleResult ks_two_sample(std::vector<double> a, std::vector<double> b,
                                     double alpha = 1e-3) {
    PPSC_CHECK(!a.empty() && !b.empty());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    const double na = static_cast<double>(a.size());
    const double nb = static_cast<double>(b.size());
    double d = 0.0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        const double x = std::min(a[i], b[j]);
        while (i < a.size() && a[i] <= x) ++i;
        while (j < b.size() && b[j] <= x) ++j;
        d = std::max(d, std::fabs(static_cast<double>(i) / na - static_cast<double>(j) / nb));
    }
    TwoSampleResult r;
    r.statistic = d;
    const double c_alpha = std::sqrt(-0.5 * std::log(0.5 * alpha));
    r.critical = c_alpha * std::sqrt((na + nb) / (na * nb));
    r.pass = r.statistic <= r.critical;
    return r;
}

}  // namespace ppsc::stat
