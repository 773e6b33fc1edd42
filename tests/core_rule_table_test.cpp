// The rule table: the open-addressed pair → id map, edge cases (no
// non-silent pairs, a single self pair), memory that scales with the
// non-silent pairs rather than |Q|², and the |Q| ≥ 10⁵ regime that buys.
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

TEST(DenseIndexMap, FindsEveryKeyAndMissesOthers) {
    // Adjacent packed pairs stress the mixer (dense in both halves); the
    // map must resolve every inserted key and miss everything else.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t p = 0; p < 40; ++p) {
        for (std::uint64_t q = p; q < 40; q += (p % 3) + 1) keys.push_back((p << 32) | q);
    }
    DenseIndexMap map;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto [index, inserted] = map.insert(keys[i]);
        EXPECT_EQ(index, i);
        EXPECT_TRUE(inserted);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(map.find(keys[i]), i);
    EXPECT_EQ(map.find((std::uint64_t{41} << 32) | 41), DenseIndexMap::kMissing);
    EXPECT_EQ(map.find(0x7fffffff00000000ull), DenseIndexMap::kMissing);
    EXPECT_GT(map.memory_bytes(), keys.size() * 12);  // ≥ 2× load headroom

    map = DenseIndexMap{};
    EXPECT_EQ(map.find(0), DenseIndexMap::kMissing);
}

TEST(DenseIndexMap, InsertKeepsIndicesAcrossDoublings) {
    // 5000 keys take the table from 8 slots through ten doublings.  After
    // every insert that crossed a power of two, every key inserted so far
    // still maps to its index, re-inserting one is a no-op, and absent
    // keys (the next keys of the sequence, and high-half neighbours) miss.
    const auto key = [](std::uint64_t i) { return ((i % 71) << 32) | (i / 71); };
    DenseIndexMap map;
    std::size_t last_bytes = 0;
    for (std::uint64_t n = 1; n <= 5000; ++n) {
        ASSERT_EQ(map.insert(key(n - 1)), (std::pair<std::uint32_t, bool>{n - 1, true}));
        ASSERT_EQ(map.size(), n);
        if (!std::has_single_bit(n)) continue;
        EXPECT_GE(map.memory_bytes(), last_bytes);
        last_bytes = map.memory_bytes();
        for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(map.find(key(i)), i);
        for (std::uint64_t i = n; i < n + 64; ++i) {
            ASSERT_EQ(map.find(key(i)), DenseIndexMap::kMissing);
            ASSERT_EQ(map.find(key(i - n) | (std::uint64_t{1} << 40)), DenseIndexMap::kMissing);
        }
        ASSERT_EQ(map.insert(key(n / 2)), (std::pair<std::uint32_t, bool>{n / 2, false}));
        ASSERT_EQ(map.size(), n);
    }
    // Load stays at most 0.5: 5000 keys in 2¹⁴ slots of 12 bytes each.
    EXPECT_EQ(map.memory_bytes(), (std::size_t{1} << 14) * 12);
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
    Config config = p.initial_config(2);
    Rng rng(7);
    std::uint64_t consumed = 0;
    const auto fired = simulator.fired_step(config, rng, std::uint64_t{1} << 30, &consumed);
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(config[t], 2);  // a,a -> t,t fired; now silent
    EXPECT_FALSE(simulator.fired_step(config, rng, std::uint64_t{1} << 30, &consumed));
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
