// The rule table: the open-addressed index set behind the pair → id map,
// edge cases (no non-silent pairs, a single self pair), memory that scales
// with the non-silent pairs rather than |Q|², and the |Q| ≥ 10⁵ regime
// that buys.
// Protocol.CsrRuleTableMatchesNaiveMapExhaustively (core_protocol_test)
// checks every lookup against a naive map.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <string>
#include <vector>

#include "protocols/double_exp_threshold.hpp"
#include "sim/simulator.hpp"
#include "support/hash.hpp"

namespace ppsc {
namespace {

// Token-merge chain with `num_states` states: c_i,c_i -> z,c_{i+1}, all
// outputs 0.  Θ(|Q|) non-silent pairs (all self pairs), cheap to build at
// any size — the shape the hash-table lookup exists for.
Protocol merge_chain(std::size_t num_states) {
    ProtocolBuilder b;
    const StateId z = b.add_state("z", 0);
    std::vector<StateId> chain(num_states - 1);
    for (std::size_t i = 0; i + 1 < num_states; ++i)
        chain[i] = b.add_state("c" + std::to_string(i), 0);
    b.set_input("x", chain[0]);
    for (std::size_t i = 0; i + 2 < num_states; ++i)
        b.add_transition(chain[i], chain[i], z, chain[i + 1]);
    return std::move(b).build();
}

/// Packed-pair keys in a caller-owned array, filed in a FlatIndexSet under
/// mix64 of the key, the way Protocol files its PairIds.
struct KeySet {
    std::vector<std::uint64_t> keys;
    FlatIndexSet set;

    std::pair<std::uint32_t, bool> insert(std::uint64_t key) {
        const auto result = set.insert(mix64(key), static_cast<std::uint32_t>(keys.size()),
                                       [&](std::uint32_t i) { return keys[i] == key; });
        if (result.second) keys.push_back(key);
        return result;
    }
    std::uint32_t find(std::uint64_t key) const {
        return set.find(mix64(key), [&](std::uint32_t i) { return keys[i] == key; });
    }
};

TEST(FlatIndexSet, FindsEveryKeyAndMissesOthers) {
    // Adjacent packed pairs stress the mixer (dense in both halves); the
    // set must resolve every inserted key and miss everything else.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t p = 0; p < 40; ++p) {
        for (std::uint64_t q = p; q < 40; q += (p % 3) + 1) keys.push_back((p << 32) | q);
    }
    KeySet map;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto [index, inserted] = map.insert(keys[i]);
        EXPECT_EQ(index, i);
        EXPECT_TRUE(inserted);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(map.find(keys[i]), i);
    EXPECT_EQ(map.find((std::uint64_t{41} << 32) | 41), FlatIndexSet::kMissing);
    EXPECT_EQ(map.find(0x7fffffff00000000ull), FlatIndexSet::kMissing);
    EXPECT_GT(map.set.memory_bytes(), keys.size() * 8);  // ≥ 2× load headroom

    map = KeySet{};
    EXPECT_EQ(map.find(0), FlatIndexSet::kMissing);
}

TEST(FlatIndexSet, InsertKeepsIndicesAcrossDoublings) {
    // 5000 keys take the table from 8 slots through ten doublings.  After
    // every insert that crossed a power of two, every key inserted so far
    // still maps to its index, re-inserting one is a no-op, and absent
    // keys (the next keys of the sequence, and high-half neighbours) miss.
    const auto key = [](std::uint64_t i) { return ((i % 71) << 32) | (i / 71); };
    KeySet map;
    std::size_t last_bytes = 0;
    for (std::uint64_t n = 1; n <= 5000; ++n) {
        ASSERT_EQ(map.insert(key(n - 1)), (std::pair<std::uint32_t, bool>{n - 1, true}));
        ASSERT_EQ(map.set.size(), n);
        if (!std::has_single_bit(n)) continue;
        EXPECT_GE(map.set.memory_bytes(), last_bytes);
        last_bytes = map.set.memory_bytes();
        for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(map.find(key(i)), i);
        for (std::uint64_t i = n; i < n + 64; ++i) {
            ASSERT_EQ(map.find(key(i)), FlatIndexSet::kMissing);
            ASSERT_EQ(map.find(key(i - n) | (std::uint64_t{1} << 40)), FlatIndexSet::kMissing);
        }
        ASSERT_EQ(map.insert(key(n / 2)), (std::pair<std::uint32_t, bool>{n / 2, false}));
        ASSERT_EQ(map.set.size(), n);
    }
    // Load stays at most 0.5: 5000 keys in 2¹⁴ slots of 8 bytes each.
    EXPECT_EQ(map.set.memory_bytes(), (std::size_t{1} << 14) * 8);
}

TEST(FlatIndexSet, ClearRestartsIndicesAndReserveKeepsEntriesResolving) {
    const auto key = [](std::uint64_t i) { return ((i % 97) << 32) | (i / 97); };
    KeySet map;
    for (std::uint64_t i = 0; i < 1000; ++i) ASSERT_TRUE(map.insert(key(i)).second);
    const std::size_t bytes = map.set.memory_bytes();

    // clear() empties the set but keeps its capacity; indices restart at 0.
    map.set.clear(256);
    map.keys.clear();
    EXPECT_EQ(map.set.size(), 0u);
    EXPECT_EQ(map.set.memory_bytes(), bytes);
    for (std::uint64_t i = 0; i < 1000; ++i) ASSERT_EQ(map.find(key(i)), FlatIndexSet::kMissing);
    for (std::uint64_t i = 0; i < 300; ++i)
        ASSERT_EQ(map.insert(key(i + 5000)), (std::pair<std::uint32_t, bool>{i, true}));

    // reserve() allocates once: growth up to the reserved count reuses it,
    // and every entry, before and after the reservation, still resolves.
    map.set.reserve(5000);
    const std::size_t reserved = map.set.memory_bytes();
    EXPECT_EQ(reserved, (std::size_t{1} << 14) * 8);
    for (std::uint64_t i = 300; i < 5000; ++i)
        ASSERT_EQ(map.insert(key(i + 5000)), (std::pair<std::uint32_t, bool>{i, true}));
    EXPECT_EQ(map.set.memory_bytes(), reserved);
    for (std::uint64_t i = 0; i < 5000; ++i) ASSERT_EQ(map.find(key(i + 5000)), i);
    for (std::uint64_t i = 0; i < 1000; ++i) ASSERT_EQ(map.find(key(i)), FlatIndexSet::kMissing);
}

TEST(FlatIndexSet, DoublingInPlaceKeepsWrappedRuns) {
    // Entry v's hash ends in j = 1 + v mod 12 one bits above random ones.
    // At every table size 2^b ≤ 2¹², the entries with j ≥ b all start
    // probing at the last slot, so one run wraps to the front, and a
    // doubling sends those with j = b and a zero bit b back to the old last
    // slot and the rest to the new one: the in-place re-placement must not
    // break the run on either side.
    std::vector<std::uint64_t> elements;
    FlatIndexSet set;
    const auto hash = [](std::uint64_t v) {
        const std::uint64_t j = 1 + v % 12;
        return (mix64(v) << j) | ((std::uint64_t{1} << j) - 1);
    };
    for (std::uint64_t v = 0; v < 2000; ++v) {
        const auto same = [&](std::uint32_t i) { return elements[i] == v; };
        ASSERT_TRUE(set.insert(hash(v), static_cast<std::uint32_t>(v), same).second);
        elements.push_back(v);
        if (!std::has_single_bit(v)) continue;  // the 2^k + 1st insert doubles the table
        for (std::uint64_t w = 0; w <= v + 8; ++w) {
            const std::uint32_t found =
                set.find(hash(w), [&](std::uint32_t i) { return elements[i] == w; });
            ASSERT_EQ(found, w <= v ? w : FlatIndexSet::kMissing) << "after " << v + 1;
        }
    }
}

TEST(FlatIndexSet, FindsByHashAndElement) {
    // Elements live in the caller's array; equal hashes (every element
    // hashed to its value mod 7) must still resolve through `equal`.
    std::vector<std::uint64_t> elements;
    FlatIndexSet set;
    const auto hash = [](std::uint64_t v) { return v % 7; };
    for (std::uint64_t v = 0; v < 3000; v += 3) {
        const auto index = static_cast<std::uint32_t>(elements.size());
        const auto [stored, inserted] =
            set.insert(hash(v), index, [&](std::uint32_t i) { return elements[i] == v; });
        ASSERT_TRUE(inserted);
        ASSERT_EQ(stored, index);
        elements.push_back(v);
    }
    ASSERT_EQ(set.size(), elements.size());
    for (std::uint64_t v = 0; v < 3000; ++v) {
        const auto same = [&](std::uint32_t i) { return elements[i] == v; };
        const std::uint32_t found = set.find(hash(v), same);
        if (v % 3 == 0) {
            ASSERT_EQ(found, v / 3);
            ASSERT_EQ(set.insert(hash(v), 99'999, same),
                      (std::pair<std::uint32_t, bool>{found, false}));
        } else {
            ASSERT_EQ(found, FlatIndexSet::kMissing);
        }
    }
}

TEST(PairLookup, ZeroNonsilentPairs) {
    // A protocol whose every pair is silent: kNoPair everywhere, and a
    // simulation is silent from the start.
    ProtocolBuilder b;
    const StateId a = b.add_state("a", 0);
    b.add_state("b", 1);
    b.set_input("x", a);
    const Protocol p = std::move(b).build();
    EXPECT_TRUE(p.nonsilent_pairs().empty());
    for (StateId s = 0; s < 2; ++s) {
        for (StateId t = s; t < 2; ++t) {
            EXPECT_EQ(p.pair_id(s, t), Protocol::kNoPair);
            EXPECT_TRUE(p.rules_for_pair(s, t).empty());
        }
    }
    const Simulator simulator(p);
    Rng rng(1);
    const SimulationResult result = simulator.run_input(5, rng);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.interactions, 0u);
}

TEST(PairLookup, SingleSelfPair) {
    ProtocolBuilder b;
    const StateId a = b.add_state("a", 0);
    const StateId t = b.add_state("t", 1);
    b.set_input("x", a);
    b.add_transition(a, a, t, t);
    const Protocol p = std::move(b).build();
    EXPECT_EQ(p.pair_id(a, a), 0u);
    EXPECT_EQ(p.self_pair(a), 0u);
    EXPECT_EQ(p.pair_id(a, t), Protocol::kNoPair);
    EXPECT_EQ(p.pair_id(t, t), Protocol::kNoPair);
    EXPECT_TRUE(p.pair_neighbors(a).empty());
    ASSERT_EQ(p.rules_for_pair_id(0).size(), 1u);

    const Simulator simulator(p);
    Simulator::Trajectory trajectory(simulator, p.initial_config(2));
    Rng rng(7);
    std::uint64_t consumed = 0;
    const auto fired = trajectory.fired_step(rng, std::uint64_t{1} << 30, &consumed);
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(trajectory.config()[t], 2);  // a,a -> t,t fired; now silent
    EXPECT_FALSE(trajectory.fired_step(rng, std::uint64_t{1} << 30, &consumed));
}

TEST(PairLookup, MemoryScalesWithNonsilentPairsNotStates) {
    // 4095 states and a single rule: a triangular pair array would hold
    // 2²³ entries (32 MiB); the table holds one pair.
    ProtocolBuilder b;
    for (int q = 0; q < 4095; ++q) b.add_state("q" + std::to_string(q), 0);
    b.set_input("x", 0);
    b.add_transition(0, 0, 1, 1);
    const Protocol one_rule = std::move(b).build();
    EXPECT_LT(one_rule.rule_table_bytes(), std::size_t{1} << 10);
    EXPECT_EQ(one_rule.pair_id(0, 0), 0u);
    EXPECT_EQ(one_rule.pair_id(4094, 4094), Protocol::kNoPair);

    // ~2·10⁴ states with Θ(|Q|) rules fit in kilobytes, where triangular
    // offsets would need ~800 MB.
    EXPECT_LT(merge_chain(20'005).rule_table_bytes(), std::size_t{1} << 21);
}

TEST(PairLookup, UnlocksHundredThousandStates) {
    // double_exp_threshold(17): |Q| = 2¹⁷ + 3 = 131075 > 10⁵.  A triangular
    // lookup would need 8.6G pair slots (~34 GB); the table is keyed on the
    // ~2.6·10⁵ non-silent pairs.
    const Protocol p = protocols::double_exp_threshold(17);
    EXPECT_EQ(p.num_states(), (std::size_t{1} << 17) + 3);
    EXPECT_LT(p.rule_table_bytes(), std::size_t{1} << 25);  // ≪ the 34 GB triangle

    // Structure spot-checks across the whole id range: the token-merge
    // self pairs and the accepting epidemic must resolve; unrelated token
    // pairs are silent.
    const StateId t0 = *p.find_state("t0");
    const StateId t_mid = *p.find_state("t65536");
    const StateId t_top = *p.find_state("t131072");
    const StateId top = *p.find_state("T");
    for (const StateId t : {t0, t_mid}) {
        const Protocol::PairId id = p.pair_id(t, t);
        ASSERT_NE(id, Protocol::kNoPair);
        ASSERT_EQ(p.rules_for_pair_id(id).size(), 1u);
    }
    EXPECT_NE(p.pair_id(top, t_mid), Protocol::kNoPair);  // epidemic
    EXPECT_NE(p.pair_id(t_top, t0), Protocol::kNoPair);   // t_top starts accepting
    EXPECT_EQ(p.pair_id(t0, t_mid), Protocol::kNoPair);   // distinct tokens wait
}

}  // namespace
}  // namespace ppsc
