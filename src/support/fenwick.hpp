// Fenwick (binary indexed) tree, templated over the weight type.
//
// The simulation hot path needs three operations on a weight vector: point
// update (a transition moves agents between states, or changes the weight of
// an ordered state pair), total weight, and inverse-CDF sampling ("which
// slot holds rank r?").  A Fenwick tree does all three in O(log n) — and its
// flat array layout keeps the whole structure in a handful of cache lines
// for the sizes this library works with.  Two walks build on the same
// layout: a multinomial split of many draws at once, and a visit of the
// weight-bearing slots in O(log n) per slot.
//
// Two instantiations are used:
//   * FenwickTree    — int64 weights: the per-state agent counts, and the
//     simulator's ordered non-silent *pair* weights up to 2³¹ agents;
//   * FenwickTree128 — __int128 weights: the pair weights beyond 2³¹
//     agents, where 2·c_p·c_q can exceed int64 (the simulator picks the
//     pair tree's weight type per population).
//
// Stored prefix.  The tree keeps its logical size() but stores nodes only for
// the slots [0, cap), where cap is a power of two, or size() itself, and
// every slot at or past cap is zero.  assign() sets cap to
// min(bit_ceil(last weight-bearing slot + 1), size()); add() past cap grows it
// the same way and never shrinks it.  In the full-size tree, a node past a
// power-of-two cap covers either only zero slots (so it holds 0) or, for a
// power-of-two node, the whole prefix (so it holds total()).  Hence every
// walk can stop at cap without changing an answer: sample() descends from
// bit_floor(cap), prefix_sum(i ≥ cap) is total(), for_each_nonzero()
// descends from bit_ceil(cap), and multinomial() still splits over
// [0, size()) through prefix_sum().  Sample ranks, split points and visit
// orders are those of the full-size tree, so a seeded trajectory does not
// depend on cap.  The point: a simulator whose weight sits in the first few
// of 10⁵ states (the E11 flagship below η) walks a few levels, not 17–19.
//
// Weights must stay non-negative for sample() to be meaningful; add() does
// not enforce this (the simulator's count arithmetic already does).  All
// operations are well-defined on an empty tree (size 0, total 0); sample()
// additionally requires total() > 0.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace ppsc {

/// Signed 128-bit weights for quantities quadratic in the population
/// (ordered pair counts n·(n−1) overflow int64 beyond 2³¹ agents).
using Int128 = __int128;

template <typename Weight>
class BasicFenwickTree {
public:
    BasicFenwickTree() = default;
    explicit BasicFenwickTree(std::span<const Weight> weights) { assign(weights); }

    /// Rebuilds the tree over `weights` in O(n).  An empty span yields the
    /// empty tree (size 0, total 0) and is always safe.
    void assign(std::span<const Weight> weights) {
        size_ = weights.size();
        std::size_t used = size_;
        while (used > 0 && weights[used - 1] == 0) --used;
        cap_ = std::min(std::bit_ceil(used), size_);
        tree_.assign(cap_ + 1, 0);
        total_ = 0;
        // O(cap) build: seed each node with its weight, then push partial
        // sums to the parent in index order.
        for (std::size_t i = 1; i <= cap_; ++i) {
            tree_[i] += weights[i - 1];
            total_ += weights[i - 1];
            const std::size_t parent = i + (i & (~i + 1));
            if (parent <= cap_) tree_[parent] += tree_[i];
        }
    }

    std::size_t size() const noexcept { return size_; }

    /// Sum of all weights, maintained incrementally — O(1).
    Weight total() const noexcept { return total_; }

    /// weights[i] += delta — O(log cap), plus the growth of the stored
    /// prefix when i lies past it.
    void add(std::size_t i, Weight delta) {
        PPSC_DASSERT(i < size_);
        if (i >= cap_) grow(i);
        total_ += delta;
        for (std::size_t j = i + 1; j <= cap_; j += j & (~j + 1)) tree_[j] += delta;
    }

    /// Sum of weights[0..i) — O(log cap).
    Weight prefix_sum(std::size_t i) const {
        PPSC_DASSERT(i <= size_);
        if (i >= cap_) return total_;
        Weight sum = 0;
        for (std::size_t j = i; j > 0; j -= j & (~j + 1)) sum += tree_[j];
        return sum;
    }

    /// weights[i] — O(log n).
    Weight value(std::size_t i) const {
        PPSC_DASSERT(i < size_);
        return prefix_sum(i + 1) - prefix_sum(i);
    }

    /// Distributes `count` independent weight-proportional categorical draws
    /// over the slots in one pass: a top-down conditional-binomial walk of
    /// the index range (split the range, draw Binomial(k, W_left/W) for the
    /// left half, recurse into both halves, prune zero-draw and zero-weight
    /// subtrees).  Marginally each slot receives Binomial(count, w_i/W) and
    /// jointly the vector is exactly Multinomial(count, w/W) — identical in
    /// distribution to `count` sequential sample() calls, in
    /// O(A·log²n + count_splits) instead of O(count·log n), where A is the
    /// number of weight-bearing slots.  Conditional probabilities are formed
    /// in double precision.  Calls emit(slot, c) once per slot with c > 0.
    /// Requires total() > 0 when count > 0.
    template <typename RngT, typename Emit>
    void multinomial(std::uint64_t count, RngT& rng, Emit&& emit) const {
        if (count == 0 || size_ == 0) return;
        PPSC_CHECK(total_ > 0);
        multinomial_split(0, size_, count, total_, rng, emit);
    }

    /// Calls visit(i) once for every slot with weights[i] != 0, in ascending
    /// index order: a top-down dyadic descent over [0, bit_ceil(cap)) that
    /// carries each block's exact sum and prunes zero-sum blocks.  A block's
    /// left half is one tree node (or, past the end, the whole block), its
    /// right half the difference, so each visited node costs O(1) and the
    /// walk O(A·log cap) for A weight-bearing slots.  Requires non-negative
    /// weights (a zero block sum must mean an all-zero block).
    template <typename Visit>
    void for_each_nonzero(Visit&& visit) const {
        if (total_ != 0) visit_nonzero(0, std::bit_ceil(cap_), total_, visit);
    }

    /// The smallest index i with prefix_sum(i+1) > r, i.e. the slot holding
    /// rank `r`.  Requires 0 ≤ r < total().  O(log cap).
    std::size_t sample(Weight r) const {
        PPSC_DASSERT(r >= 0 && r < total_);
        std::size_t idx = 0;
        for (std::size_t mask = std::bit_floor(cap_); mask != 0; mask >>= 1) {
            const std::size_t next = idx + mask;
            if (next <= cap_ && tree_[next] <= r) {
                idx = next;
                r -= tree_[next];
            }
        }
        return idx;
    }

private:
    // Extends the stored prefix to min(bit_ceil(i + 1), size_) slots.  cap_
    // is a power of two here (a cap of size_ leaves no slot past it), so of
    // the new nodes the powers of two cover [0, cap_) and hold the total;
    // every other one covers only slots at or past cap_ and holds zero.
    void grow(std::size_t i) {
        const std::size_t old_cap = cap_;
        cap_ = std::min(std::bit_ceil(i + 1), size_);
        tree_.resize(cap_ + 1, 0);
        for (std::size_t node = old_cap == 0 ? 1 : 2 * old_cap; node <= cap_; node *= 2)
            tree_[node] = total_;
    }

    // Slots [base, base + width) with exact sum `sum` != 0; base is a
    // multiple of width, so tree_[base + width/2] is exactly the left half.
    template <typename Visit>
    void visit_nonzero(std::size_t base, std::size_t width, Weight sum, Visit& visit) const {
        while (width > 1) {
            const std::size_t half = width / 2;
            const Weight left = base + half <= cap_ ? tree_[base + half] : sum;
            if (left == sum) {  // right half weightless
                width = half;
                continue;
            }
            if (left != 0) visit_nonzero(base, half, left, visit);
            base += half;
            width = half;
            sum -= left;
        }
        PPSC_DASSERT(base < size_);
        visit(base);
    }

    template <typename RngT, typename Emit>
    void multinomial_split(std::size_t lo, std::size_t hi, std::uint64_t count, Weight weight,
                           RngT& rng, Emit& emit) const {
        while (hi - lo > 1) {
            const std::size_t mid = lo + (hi - lo) / 2;
            const Weight left = prefix_sum(mid) - prefix_sum(lo);
            if (left == weight) {  // right half weightless: all draws go left
                hi = mid;
                continue;
            }
            if (left == 0) {  // left half weightless: all draws go right
                lo = mid;
                continue;
            }
            const std::uint64_t count_left =
                rng.binomial(count, static_cast<double>(left) / static_cast<double>(weight));
            if (count_left > 0) multinomial_split(lo, mid, count_left, left, rng, emit);
            count -= count_left;
            if (count == 0) return;
            lo = mid;
            weight -= left;
        }
        emit(lo, count);
    }

    std::vector<Weight> tree_;  // 1-based implicit binary indexed tree over [0, cap_)
    std::size_t size_ = 0;
    std::size_t cap_ = 0;  // stored slots: a power of two or size_; slots ≥ cap_ are zero
    Weight total_ = 0;
};

extern template class BasicFenwickTree<std::int64_t>;
extern template class BasicFenwickTree<Int128>;

/// Agent-count tree (weights bounded by the population, fits int64).
using FenwickTree = BasicFenwickTree<std::int64_t>;
/// Ordered-pair-weight tree (weights quadratic in the population).
using FenwickTree128 = BasicFenwickTree<Int128>;

}  // namespace ppsc
