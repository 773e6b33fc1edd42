// Tests for the Fenwick tree and for the Fenwick-backed agent sampling of
// the simulator: exact equivalence with the linear-scan rank mapping the
// simulator used before, plus a chi-squared goodness-of-fit test of the
// sampled pair distribution.
#include "support/fenwick.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "protocols/threshold.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace ppsc {
namespace {

TEST(FenwickTree, PrefixSumsMatchNaive) {
    const std::vector<std::int64_t> weights = {3, 0, 5, 1, 0, 0, 7, 2, 4};
    const FenwickTree tree{std::span<const std::int64_t>(weights)};
    std::int64_t sum = 0;
    for (std::size_t i = 0; i <= weights.size(); ++i) {
        EXPECT_EQ(tree.prefix_sum(i), sum);
        if (i < weights.size()) {
            EXPECT_EQ(tree.value(i), weights[i]);
            sum += weights[i];
        }
    }
    EXPECT_EQ(tree.total(), sum);
}

TEST(FenwickTree, SampleInvertsTheCdfExhaustively) {
    const std::vector<std::int64_t> weights = {2, 0, 3, 1, 0, 4};
    const FenwickTree tree{std::span<const std::int64_t>(weights)};
    // Rank r belongs to the smallest i with prefix_sum(i+1) > r.
    for (std::int64_t r = 0; r < tree.total(); ++r) {
        std::size_t expected = 0;
        std::int64_t cumulative = 0;
        for (std::size_t q = 0; q < weights.size(); ++q) {
            cumulative += weights[q];
            if (r < cumulative) {
                expected = q;
                break;
            }
        }
        EXPECT_EQ(tree.sample(r), expected) << "rank " << r;
    }
}

TEST(FenwickTree, AddKeepsTreeConsistent) {
    std::vector<std::int64_t> naive(17, 0);
    FenwickTree tree{std::span<const std::int64_t>(naive)};
    Rng rng(7);
    for (int iter = 0; iter < 1000; ++iter) {
        const std::size_t i = rng.below(naive.size());
        const std::int64_t delta = static_cast<std::int64_t>(rng.below(9)) - naive[i] % 5;
        if (naive[i] + delta < 0) continue;
        naive[i] += delta;
        tree.add(i, delta);
    }
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < naive.size(); ++i) {
        EXPECT_EQ(tree.prefix_sum(i), sum);
        sum += naive[i];
    }
    EXPECT_EQ(tree.total(), sum);
}

TEST(FenwickTree, SingleElementAndEmpty) {
    const std::vector<std::int64_t> one = {5};
    const FenwickTree tree{std::span<const std::int64_t>(one)};
    EXPECT_EQ(tree.total(), 5);
    for (std::int64_t r = 0; r < 5; ++r) EXPECT_EQ(tree.sample(r), 0u);

    const FenwickTree empty;
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(empty.total(), 0);
}

TEST(FenwickTree, ConstructionOverEmptyCountVectorIsClean) {
    // Degenerate input: assign over an empty span must yield a working
    // empty tree (and shrink a previously non-empty one), with every
    // non-sampling operation well-defined.
    const std::vector<std::int64_t> weights = {4, 2};
    FenwickTree tree{std::span<const std::int64_t>(weights)};
    EXPECT_EQ(tree.total(), 6);
    tree.assign(std::span<const std::int64_t>{});
    EXPECT_EQ(tree.size(), 0u);
    EXPECT_EQ(tree.total(), 0);
    EXPECT_EQ(tree.prefix_sum(0), 0);

    const FenwickTree128 empty128{std::span<const Int128>{}};
    EXPECT_EQ(empty128.size(), 0u);
    EXPECT_TRUE(empty128.total() == 0);
}

TEST(FenwickTree128, CarriesWeightsBeyondInt64) {
    // The pair-weight instantiation: ordered pair weights 2·c_p·c_q pass
    // int64 once populations pass 2³¹ agents.  Exercise sums, updates and
    // sampling with weights around 2^80.
    const Int128 big = Int128{1} << 80;
    const std::vector<Int128> weights = {big, 0, 3 * big, big / 2};
    FenwickTree128 tree{std::span<const Int128>(weights)};
    EXPECT_TRUE(tree.total() == big + 3 * big + big / 2);
    EXPECT_TRUE(tree.value(2) == 3 * big);
    EXPECT_EQ(tree.sample(0), 0u);
    EXPECT_EQ(tree.sample(big), 2u);            // first rank past slot 0
    EXPECT_EQ(tree.sample(4 * big), 3u);        // into the last slot
    tree.add(1, big);
    EXPECT_TRUE(tree.prefix_sum(2) == 2 * big);
    EXPECT_EQ(tree.sample(big + 1), 1u);
    // Exhaustive CDF inversion at coarse ranks, mirroring the int64 test.
    std::size_t expected_slot = 0;
    Int128 cumulative = 0;
    for (std::size_t q = 0; q < weights.size(); ++q) {
        const Int128 w = tree.value(q);
        if (w == 0) continue;
        EXPECT_EQ(tree.sample(cumulative), q);
        EXPECT_EQ(tree.sample(cumulative + w - 1), q);
        cumulative += w;
        expected_slot = q;
    }
    EXPECT_EQ(expected_slot, 3u);
    EXPECT_TRUE(cumulative == tree.total());
}

/// The slots for_each_nonzero visits, in visit order.
template <typename W>
std::vector<std::size_t> visited_slots(const BasicFenwickTree<W>& tree) {
    std::vector<std::size_t> slots;
    tree.for_each_nonzero([&](std::size_t i) { slots.push_back(i); });
    return slots;
}

/// Brute force: every slot with non-zero weight, ascending.
template <typename W>
std::vector<std::size_t> nonzero_slots(const std::vector<W>& weights) {
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < weights.size(); ++i)
        if (weights[i] != 0) slots.push_back(i);
    return slots;
}

/// Checks for_each_nonzero against the brute-force scan on random sparse
/// weights (≈ 90% zero) of every size in `sizes`, then again after add()
/// rounds that zero some weight-bearing slots and revive some empty ones.
/// `unit` scales every weight (2⁷⁰ takes the 128-bit tree past int64).
template <typename W>
void expect_visits_match_brute_force(std::span<const std::size_t> sizes, W unit) {
    Rng rng(0xF0E4);
    for (const std::size_t size : sizes) {
        std::vector<W> weights(size, 0);
        for (W& w : weights)
            if (rng.below(10) == 0) w = unit * static_cast<W>(1 + rng.below(1000));
        BasicFenwickTree<W> tree{std::span<const W>(weights)};
        for (int round = 0; round < 8; ++round) {
            const std::vector<std::size_t> visited = visited_slots(tree);
            EXPECT_EQ(visited, nonzero_slots(weights)) << "size " << size << " round " << round;
            for (std::size_t k = 1; k < visited.size(); ++k)
                EXPECT_LT(visited[k - 1], visited[k]) << "each slot once, ascending";
            if (size == 0) break;
            for (std::size_t change = 0; change < 1 + size / 10; ++change) {
                const std::size_t i = rng.below(size);
                const W delta =
                    weights[i] != 0 ? -weights[i] : unit * static_cast<W>(1 + rng.below(1000));
                weights[i] += delta;
                tree.add(i, delta);
            }
        }
    }
}

TEST(FenwickTree, ForEachNonzeroVisitsExactlyTheWeightBearingSlotsInOrder) {
    const std::size_t sizes[] = {0, 1, 2, 3, 5, 7, 8, 9, 1000};
    expect_visits_match_brute_force<std::int64_t>(sizes, 1);

    // Dense and all-zero extremes, including a non-power-of-two size whose
    // last dyadic block runs past the end.
    const std::vector<std::int64_t> dense = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    const FenwickTree full{std::span<const std::int64_t>(dense)};
    EXPECT_EQ(visited_slots(full), nonzero_slots(dense));
    const std::vector<std::int64_t> zeros(9, 0);
    const FenwickTree none{std::span<const std::int64_t>(zeros)};
    EXPECT_TRUE(visited_slots(none).empty());
    EXPECT_TRUE(visited_slots(FenwickTree{}).empty());
}

TEST(FenwickTree128, ForEachNonzeroHandlesWeightsBeyondInt64) {
    const std::size_t sizes[] = {0, 1, 2, 3, 5, 7, 8, 9, 1000};
    expect_visits_match_brute_force<Int128>(sizes, Int128{1} << 70);

    // A block whose sum passes 2⁶⁴ next to slots of weight 1: pruning
    // must rely on exact 128-bit sums, not a truncated word.
    const std::vector<Int128> weights = {0, Int128{1} << 100, 0, 1, 0, 0, 1, Int128{1} << 64, 0};
    const FenwickTree128 tree{std::span<const Int128>(weights)};
    EXPECT_EQ(visited_slots(tree), nonzero_slots(weights));
}

// --- Stored prefix vs logical size ----------------------------------------
//
// The tree stores nodes only up to its last weight-bearing slot's power-of-
// two ceiling.  Every answer must equal the one a full-size tree gives, so
// each check below compares against a naive full-array reference.

/// Naive multinomial over the full weight array: the tree's split
/// algorithm, with each half's weight summed slot by slot.  Given an equal
/// Rng state it must emit the same (slot, count) sequence as the tree.
template <typename W>
void naive_multinomial(const std::vector<W>& weights, std::size_t lo, std::size_t hi,
                       std::uint64_t count, W weight, Rng& rng,
                       std::vector<std::pair<std::size_t, std::uint64_t>>& out) {
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        W left = 0;
        for (std::size_t i = lo; i < mid; ++i) left += weights[i];
        if (left == weight) {
            hi = mid;
            continue;
        }
        if (left == 0) {
            lo = mid;
            continue;
        }
        const std::uint64_t count_left =
            rng.binomial(count, static_cast<double>(left) / static_cast<double>(weight));
        if (count_left > 0) naive_multinomial(weights, lo, mid, count_left, left, rng, out);
        count -= count_left;
        if (count == 0) return;
        lo = mid;
        weight -= left;
    }
    out.emplace_back(lo, count);
}

/// The slot holding rank r, by a linear scan of the full array.
template <typename W>
std::size_t naive_sample(const std::vector<W>& weights, W r) {
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (r < weights[i]) return i;
        r -= weights[i];
    }
    ADD_FAILURE() << "rank beyond the total";
    return weights.size();
}

/// Every answer of `tree` against the full array `weights`: size, total,
/// prefix_sum and value at every index, for_each_nonzero order, sample at
/// every rank (or, past 2¹⁴ ranks, at the first and last rank of every
/// weight-bearing slot), and multinomial output from equal Rng seeds.
template <typename W>
void expect_matches_full_array(const BasicFenwickTree<W>& tree, const std::vector<W>& weights,
                               const std::string& where) {
    SCOPED_TRACE(where);
    ASSERT_EQ(tree.size(), weights.size());
    W total = 0;
    for (std::size_t i = 0; i <= weights.size(); ++i) {
        ASSERT_TRUE(tree.prefix_sum(i) == total) << "prefix_sum(" << i << ")";
        if (i == weights.size()) break;
        ASSERT_TRUE(tree.value(i) == weights[i]) << "value(" << i << ")";
        total += weights[i];
    }
    ASSERT_TRUE(tree.total() == total);
    EXPECT_EQ(visited_slots(tree), nonzero_slots(weights));
    if (total == 0) return;

    if (total <= W{1} << 14) {
        for (W r = 0; r < total; ++r) ASSERT_EQ(tree.sample(r), naive_sample(weights, r));
    } else {
        W first = 0;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            if (weights[i] == 0) continue;
            ASSERT_EQ(tree.sample(first), i) << "first rank of slot " << i;
            ASSERT_EQ(tree.sample(first + weights[i] - 1), i) << "last rank of slot " << i;
            first += weights[i];
        }
    }

    for (const std::uint64_t count :
         {std::uint64_t{1}, std::uint64_t{17}, std::uint64_t{1} << 40}) {
        Rng tree_rng(count * 31 + 5), naive_rng(count * 31 + 5);
        std::vector<std::pair<std::size_t, std::uint64_t>> got, want;
        tree.multinomial(count, tree_rng,
                         [&](std::size_t slot, std::uint64_t c) { got.emplace_back(slot, c); });
        naive_multinomial(weights, 0, weights.size(), count, total, naive_rng, want);
        EXPECT_EQ(got, want) << "multinomial(" << count << ")";
        EXPECT_EQ(tree_rng.state(), naive_rng.state());
    }
}

const std::size_t kPrefixSizes[] = {0, 1, 2, 3, 5, 7, 8, 9, 1000, 393220};

/// assign() over weights whose tail is zero: random weights (scaled by
/// `unit`) in the first `used` slots, zeros after, for several `used` per
/// size — including none, one, a power of two, and all of them.
template <typename W>
void expect_assign_with_trailing_zeros_matches(W unit) {
    Rng rng(0x7A11);
    for (const std::size_t size : kPrefixSizes) {
        for (const std::size_t used : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                                       std::size_t{5}, std::size_t{22}, size / 2, size}) {
            if (used > size) continue;
            std::vector<W> weights(size, 0);
            for (std::size_t i = 0; i < used; ++i)
                if (rng.below(3) != 0) weights[i] = unit * static_cast<W>(1 + rng.below(9));
            if (used > 0) weights[used - 1] = unit;  // the last stored slot bears weight
            const BasicFenwickTree<W> tree{std::span<const W>(weights)};
            expect_matches_full_array(tree, weights,
                                      "size " + std::to_string(size) + " used " +
                                          std::to_string(used));
        }
    }
}

/// add() that grows the stored prefix: from an all-zero tree, weight lands
/// on ever higher slots, across several doublings and finally on the last
/// slot of a non-power-of-two size.  Checked after every growing add.
template <typename W>
void expect_growth_by_add_matches(W unit) {
    Rng rng(0x6207);
    for (const std::size_t size : kPrefixSizes) {
        std::vector<W> weights(size, 0);
        BasicFenwickTree<W> tree{std::span<const W>(weights)};
        expect_matches_full_array(tree, weights, "size " + std::to_string(size) + " empty");
        std::vector<std::size_t> targets;
        for (std::size_t i = 0; i < size; i = 2 * i + 1 + rng.below(2)) targets.push_back(i);
        if (size > 0) targets.push_back(size - 1);
        for (const std::size_t i : targets) {
            // Some weight below the new slot first, so the new power-of-two
            // nodes must pick up a non-zero total.
            const std::size_t below = rng.below(i + 1);
            const W w = unit * static_cast<W>(1 + rng.below(9));
            weights[below] += w;
            tree.add(below, w);
            weights[i] += unit;
            tree.add(i, unit);
            expect_matches_full_array(tree, weights,
                                      "size " + std::to_string(size) + " grown to slot " +
                                          std::to_string(i));
        }
        // Emptying the tree again keeps every answer right (the prefix only
        // ever grows).
        for (std::size_t i = 0; i < size; ++i) {
            if (weights[i] == 0) continue;
            tree.add(i, -weights[i]);
            weights[i] = 0;
        }
        expect_matches_full_array(tree, weights, "size " + std::to_string(size) + " emptied");
    }
}

TEST(FenwickTree, AssignWithTrailingZerosMatchesFullArray) {
    expect_assign_with_trailing_zeros_matches<std::int64_t>(1);
}

TEST(FenwickTree, AddGrowingFromEmptyMatchesFullArray) {
    expect_growth_by_add_matches<std::int64_t>(1);
}

TEST(FenwickTree128, AssignWithTrailingZerosMatchesFullArrayAt2To100) {
    expect_assign_with_trailing_zeros_matches<Int128>(Int128{1} << 100);
}

TEST(FenwickTree128, AddGrowingFromEmptyMatchesFullArrayAt2To100) {
    expect_growth_by_add_matches<Int128>(Int128{1} << 100);
}

TEST(Rng, Below128DelegatesToBelowInWordRangeAndHonoursWideBounds) {
    // In-word bounds must consume the stream exactly like below(), so the
    // widened pair-weight draw leaves all ≤ 2³¹-population trajectories
    // bit-identical.
    Rng narrow(42), wide(42);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t bound = 1 + (i * 7919u);
        EXPECT_EQ(static_cast<std::uint64_t>(wide.below128(bound)), narrow.below(bound));
    }
    // Wide bounds: all draws in range, and the high 64 bits actually used.
    const unsigned __int128 bound = (static_cast<unsigned __int128>(1) << 70) + 12345;
    Rng rng(7);
    bool saw_high_bits = false;
    for (int i = 0; i < 500; ++i) {
        const unsigned __int128 v = rng.below128(bound);
        ASSERT_TRUE(v < bound);
        saw_high_bits = saw_high_bits || (v >> 64) != 0;
    }
    EXPECT_TRUE(saw_high_bits);
}

// The linear-scan rank→state mapping the simulator used before the Fenwick
// sampler.  Used as the reference in the equivalence tests below.
StateId scan_rank(const std::vector<AgentCount>& counts, AgentCount rank) {
    AgentCount cumulative = 0;
    for (std::size_t q = 0; q < counts.size(); ++q) {
        cumulative += counts[q];
        if (rank < cumulative) return static_cast<StateId>(q);
    }
    ADD_FAILURE() << "rank " << rank << " beyond population";
    return -1;
}

TEST(FenwickSampling, RankMappingMatchesLinearScanExhaustively) {
    const std::vector<AgentCount> counts = {4, 0, 0, 9, 1, 0, 6, 2};
    const FenwickTree tree{std::span<const std::int64_t>(counts)};
    for (AgentCount r = 0; r < tree.total(); ++r)
        EXPECT_EQ(static_cast<StateId>(tree.sample(r)), scan_rank(counts, r)) << "rank " << r;
}

TEST(FenwickSampling, SamplePairMatchesLinearScanGivenSameRanks) {
    // Simulator::sample_pair consumes two rng.below draws exactly like the
    // old scan-based sampler; with the same Rng state both must produce the
    // same ordered state pair.
    const Protocol protocol = protocols::collector_threshold(37);
    const Simulator simulator(protocol);
    Simulator::Trajectory trajectory(simulator, protocol.initial_config(50));
    // Scramble the configuration so many states are occupied.
    Rng scramble(3);
    for (int i = 0; i < 300; ++i) trajectory.step(scramble);
    const Config& config = trajectory.config();

    Rng rng_fenwick(12345), rng_reference(12345);
    const AgentCount n = config.size();
    for (int i = 0; i < 2000; ++i) {
        const auto [s1, s2] = trajectory.sample_pair(rng_fenwick);
        const auto r1 = static_cast<AgentCount>(
            rng_reference.below(static_cast<std::uint64_t>(n)));
        auto r2 = static_cast<AgentCount>(
            rng_reference.below(static_cast<std::uint64_t>(n - 1)));
        if (r2 >= r1) ++r2;
        EXPECT_EQ(s1, scan_rank(config.counts(), r1));
        EXPECT_EQ(s2, scan_rank(config.counts(), r2));
    }
}

TEST(FenwickSampling, PairDistributionPassesChiSquared) {
    // Chi-squared goodness-of-fit of Simulator::sample_pair against the
    // exact encounter distribution P(s1=a, s2=b) = c_a (c_b − [a=b]) / n(n−1).
    const std::size_t num_states = 5;
    const Config config = Config::from_counts({6, 0, 3, 9, 2});
    const double n = static_cast<double>(config.size());

    ProtocolBuilder b;
    for (std::size_t q = 0; q < num_states; ++q)
        b.add_state("s" + std::to_string(q), 0);
    b.set_input("x", 0);
    b.add_transition(0, 1, 2, 3);  // protocols need one rule; sampling ignores it
    const Protocol protocol = std::move(b).build();
    const Simulator simulator(protocol);
    const Simulator::Trajectory trajectory(simulator, config);

    const int samples = 200000;
    std::map<std::pair<StateId, StateId>, int> observed;
    Rng rng(271828);
    for (int i = 0; i < samples; ++i) ++observed[trajectory.sample_pair(rng)];

    double chi2 = 0.0;
    int cells = 0;
    for (StateId a = 0; a < static_cast<StateId>(num_states); ++a) {
        for (StateId bb = 0; bb < static_cast<StateId>(num_states); ++bb) {
            const double ca = static_cast<double>(config[a]);
            const double cb = static_cast<double>(config[bb]) - (a == bb ? 1.0 : 0.0);
            const double p = ca * cb / (n * (n - 1.0));
            const int seen = observed[{a, bb}];
            if (p <= 0.0) {
                EXPECT_EQ(seen, 0);
                continue;
            }
            const double expected = p * samples;
            const double diff = seen - expected;
            chi2 += diff * diff / expected;
            ++cells;
        }
    }
    // 4 occupied states → 16 occupied-pair cells → 15 degrees of freedom;
    // the 99.9th percentile of χ²(15) is ≈ 37.7.  A correct sampler fails
    // this once in a thousand seeds; the seed above is fixed, so the test
    // is deterministic.
    EXPECT_EQ(cells, 16);
    EXPECT_LT(chi2, 37.7) << "sampled pair distribution deviates from uniform encounters";
}

}  // namespace
}  // namespace ppsc
