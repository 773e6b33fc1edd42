// Deterministic, fast random number generation for simulations.
//
// All stochastic components of the library (schedulers, workload
// generators, the busy-beaver sampler) take an explicit Rng so that every
// experiment is reproducible from its seed.  SplitMix64 passes BigCrush,
// has a 64-bit state, and is trivially seedable — more than adequate for
// protocol scheduling (we are not doing cryptography).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "support/check.hpp"

namespace ppsc {

class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    /// Next raw 64-bit value (SplitMix64).
    std::uint64_t next() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /// Uniform value in [0, bound). Requires bound > 0.
    /// Lemire's nearly-divisionless method.
    std::uint64_t below(std::uint64_t bound) noexcept {
        PPSC_CHECK(bound > 0);
        unsigned __int128 m = static_cast<unsigned __int128>(next()) * bound;
        // ppsc-lint: allow(R4) deliberate low-word extraction — Lemire's method inspects the low 64 bits
        auto low = static_cast<std::uint64_t>(m);
        if (low < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (low < threshold) {
                m = static_cast<unsigned __int128>(next()) * bound;
                // ppsc-lint: allow(R4) deliberate low-word extraction, same as above
                low = static_cast<std::uint64_t>(m);
            }
        }
        // ppsc-lint: allow(R4) m >> 64 of a 128-bit product fits 64 bits exactly
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Uniform value in [0, bound) for bounds beyond 64 bits (ordered-pair
    /// weights of populations past 2³¹ agents).  Requires bound > 0.
    /// Delegates to below() whenever the bound fits a word, so callers that
    /// stay in 64-bit range consume the stream exactly as before.
    unsigned __int128 below128(unsigned __int128 bound) noexcept {
        PPSC_CHECK(bound > 0);
        constexpr auto kWordMax = static_cast<unsigned __int128>(~std::uint64_t{0});
        // ppsc-lint: allow(R4) guarded by the bound <= kWordMax test on this very line
        if (bound <= kWordMax) return below(static_cast<std::uint64_t>(bound));
        // Mask-and-reject over the smallest power-of-two range covering
        // bound: < 2 draws of 128 bits in expectation.
        // ppsc-lint: allow(R4) (bound - 1) >> 64 of a 128-bit value fits 64 bits exactly
        const auto high = static_cast<std::uint64_t>((bound - 1) >> 64);  // > 0 here
        const int bits = 128 - std::countl_zero(high);
        const unsigned __int128 mask =
            (static_cast<unsigned __int128>(bits == 128 ? ~std::uint64_t{0}
                                                        : (std::uint64_t{1} << (bits - 64)) - 1)
             << 64) |
            ~std::uint64_t{0};
        while (true) {
            // Two sequenced draws: high word first.  (A single combined
            // expression would leave the call order unspecified and make
            // per-seed trajectories compiler-dependent.)
            const std::uint64_t high_word = next();
            const std::uint64_t low_word = next();
            const unsigned __int128 v =
                ((static_cast<unsigned __int128>(high_word) << 64) | low_word) & mask;
            if (v < bound) return v;
        }
    }

    /// Uniform double in [0, 1).
    double uniform() noexcept {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// True with probability p (0 ≤ p ≤ 1).
    bool bernoulli(double p) noexcept { return uniform() < p; }

    /// Standard normal deviate (Box–Muller, one of the pair used).  Two
    /// uniforms per call, so the draw count per variate is deterministic.
    double normal() noexcept {
        double u1 = uniform();
        const double u2 = uniform();
        // uniform() can return exactly 0; log(0) would poison the stream.
        if (u1 <= 0.0) u1 = 0x1.0p-53;
        return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586477 * u2);
    }

    /// Exact Binomial(n, p) deviate.  Inversion for small n·p, Hörmann's
    /// BTRS transformed rejection otherwise — both sample the exact pmf, so
    /// the choice of algorithm only affects speed, not the distribution.
    /// n may be as large as 2⁵³ (the arithmetic is double-based).
    std::uint64_t binomial(std::uint64_t n, double p) noexcept {
        if (n == 0 || p <= 0.0) return 0;
        if (p >= 1.0) return n;
        if (p > 0.5) return n - binomial_half(n, 1.0 - p);
        return binomial_half(n, p);
    }

    /// Exact Poisson(λ) deviate: CDF inversion for small λ, Hörmann's PTRS
    /// transformed rejection for large.  Saturates at uint64 max for
    /// astronomically large λ (callers clamp to a budget anyway).
    std::uint64_t poisson(double lambda) noexcept {
        if (lambda <= 0.0) return 0;
        if (lambda < 10.0) {
            // Multiplicative inversion: product of uniforms vs e^{-λ}.
            const double limit = std::exp(-lambda);
            double prod = 1.0;
            std::uint64_t k = 0;
            do {
                prod *= uniform();
                if (prod < limit) return k;
                ++k;
            } while (k < 1000);
            return k;  // unreachable in practice for λ < 10
        }
        if (lambda > 0x1.0p62) return ~std::uint64_t{0};
        return poisson_ptrs(lambda);
    }

    /// Gamma(shape, 1) deviate for shape ≥ 1 (Marsaglia–Tsang squeeze).
    double gamma(double shape) noexcept {
        PPSC_CHECK(shape >= 1.0);
        const double d = shape - 1.0 / 3.0;
        const double c = 1.0 / std::sqrt(9.0 * d);
        while (true) {
            double x;
            double v;
            do {
                x = normal();
                v = 1.0 + c * x;
            } while (v <= 0.0);
            v = v * v * v;
            const double u = uniform();
            if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
            if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
        }
    }

    /// Negative binomial: number of failures before the k-th success in
    /// Bernoulli(p) trials (k ≥ 1, 0 < p ≤ 1).  Sampled as the exact
    /// Gamma–Poisson mixture Poisson(Gamma(k)·(1−p)/p); saturates at uint64
    /// max when the expectation leaves the representable range.
    std::uint64_t negative_binomial(std::uint64_t k, double p) noexcept {
        PPSC_CHECK(k >= 1 && p > 0.0);
        if (p >= 1.0) return 0;
        const double lambda = gamma(static_cast<double>(k)) * ((1.0 - p) / p);
        return poisson(lambda);
    }

    /// The full generator state — SplitMix64's state is one word, so a
    /// checkpoint carrying this value resumes the stream exactly where it
    /// left off (sim/checkpoint.hpp).
    std::uint64_t state() const noexcept { return state_; }

    /// Restores a state captured by state(): the next draw continues the
    /// original stream byte-identically.
    void set_state(std::uint64_t state) noexcept { state_ = state; }

private:
    /// lgamma_r, not std::lgamma: lgamma also writes the global `signgam`,
    /// a data race when epoch-mode runs draw on several threads.  Both
    /// compute the same value.
    static double lfact(double x) noexcept {
        int sign = 0;
        return ::lgamma_r(x + 1.0, &sign);
    }

    /// Binomial(n, p) for 0 < p ≤ 0.5.
    std::uint64_t binomial_half(std::uint64_t n, double p) noexcept {
        const double np = static_cast<double>(n) * p;
        if (np < 10.0 || n < 64) {
            // Geometric-gap inversion: walk from 0 jumping over failures;
            // O(n·p) expected draws, exact for any n.
            const double log_q = std::log1p(-p);
            std::uint64_t successes = 0;
            double trials = 0.0;
            const double nd = static_cast<double>(n);
            while (true) {
                double u = uniform();
                if (u <= 0.0) u = 0x1.0p-53;
                trials += std::floor(std::log(u) / log_q) + 1.0;
                if (trials > nd) return successes;
                ++successes;
            }
        }
        return binomial_btrs(n, p);
    }

    /// Hörmann's BTRS transformed rejection (1993), exact for n·p ≥ 10,
    /// p ≤ 0.5.  The same parameterization numpy uses.
    std::uint64_t binomial_btrs(std::uint64_t n, double p) noexcept {
        const double nd = static_cast<double>(n);
        const double q = 1.0 - p;
        const double spq = std::sqrt(nd * p * q);
        const double b = 1.15 + 2.53 * spq;
        const double a = -0.0873 + 0.0248 * b + 0.01 * p;
        const double c = nd * p + 0.5;
        const double v_r = 0.92 - 4.2 / b;
        const double alpha = (2.83 + 5.1 / b) * spq;
        const double lpq = std::log(p / q);
        const double m = std::floor((nd + 1.0) * p);
        const double h = lfact(m) + lfact(nd - m);
        while (true) {
            const double u = uniform() - 0.5;
            double v = uniform();
            const double us = 0.5 - std::fabs(u);
            const double kd = std::floor((2.0 * a / us + b) * u + c);
            if (kd < 0.0 || kd > nd) continue;
            if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(kd);
            if (v <= 0.0) continue;
            v = std::log(v * alpha / (a / (us * us) + b));
            if (v <= h - lfact(kd) - lfact(nd - kd) + (kd - m) * lpq) {
                return static_cast<std::uint64_t>(kd);
            }
        }
    }

    /// Hörmann's PTRS transformed rejection for Poisson, exact for λ ≥ 10.
    std::uint64_t poisson_ptrs(double lambda) noexcept {
        const double slam = std::sqrt(lambda);
        const double loglam = std::log(lambda);
        const double b = 0.931 + 2.53 * slam;
        const double a = -0.059 + 0.02483 * b;
        const double invalpha = 1.1239 + 1.1328 / (b - 3.4);
        const double v_r = 0.9277 - 3.6224 / (b - 2.0);
        while (true) {
            const double u = uniform() - 0.5;
            double v = uniform();
            const double us = 0.5 - std::fabs(u);
            const double kd = std::floor((2.0 * a / us + b) * u + lambda + 0.43);
            if (us >= 0.07 && v <= v_r) {
                return kd < 0.0 ? 0 : static_cast<std::uint64_t>(kd);
            }
            if (kd < 0.0 || (us < 0.013 && v > us)) continue;
            if (v <= 0.0) continue;
            if (std::log(v) + std::log(invalpha) - std::log(a / (us * us) + b) <=
                kd * loglam - lambda - lfact(kd)) {
                return static_cast<std::uint64_t>(kd);
            }
        }
    }

    std::uint64_t state_;
};

}  // namespace ppsc
