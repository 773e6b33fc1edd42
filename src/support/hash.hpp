// Hashing utilities shared across the library.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace ppsc {

/// Mixes `value` into `seed` (boost::hash_combine style, 64-bit constants).
inline void hash_combine(std::size_t& seed, std::size_t value) noexcept {
    seed ^= value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

/// splitmix64 finalizer: a full-avalanche 64→64 mix, so nearby keys (packed
/// state pairs are dense in both halves) spread over the whole table.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/// Open-addressed hash map from 64-bit keys to dense 32-bit indices: key
/// `keys[i]` maps to `i`.  Built once, then read-only — the rule-table lookup
/// of Protocol (packed state pair → PairId), sized by the number of
/// *non-silent* pairs instead of a Θ(|Q|²) triangular table.
///
/// Linear probing over a power-of-two table at load factor ≤ 0.5, so a
/// lookup is one mix + a short probe run in two parallel flat arrays.  Keys
/// must be distinct and must not use the top bit (the all-ones word marks an
/// empty slot); packed state pairs never do.
class DenseIndexMap {
public:
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
    static constexpr std::uint32_t kMissing = ~std::uint32_t{0};

    DenseIndexMap() = default;

    /// Rebuilds the table so that find(keys[i]) == i.  O(n).
    void assign(std::span<const std::uint64_t> keys) {
        std::size_t capacity = 8;
        while (capacity < keys.size() * 2) capacity <<= 1;
        mask_ = capacity - 1;
        keys_.assign(capacity, kEmptyKey);
        values_.assign(capacity, kMissing);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            PPSC_DASSERT(keys[i] != kEmptyKey);
            std::size_t slot = static_cast<std::size_t>(mix64(keys[i])) & mask_;
            while (keys_[slot] != kEmptyKey) {
                PPSC_DASSERT(keys_[slot] != keys[i]);  // keys are distinct
                slot = (slot + 1) & mask_;
            }
            keys_[slot] = keys[i];
            values_[slot] = static_cast<std::uint32_t>(i);
        }
    }

    /// The index assigned to `key`, or kMissing.  O(1) expected.
    std::uint32_t find(std::uint64_t key) const noexcept {
        if (keys_.empty()) return kMissing;
        std::size_t slot = static_cast<std::size_t>(mix64(key)) & mask_;
        while (true) {
            const std::uint64_t stored = keys_[slot];
            if (stored == key) return values_[slot];
            if (stored == kEmptyKey) return kMissing;
            slot = (slot + 1) & mask_;
        }
    }

    bool empty() const noexcept { return keys_.empty(); }

    /// Heap footprint of the table arrays, for memory accounting.
    std::size_t memory_bytes() const noexcept {
        return keys_.capacity() * sizeof(std::uint64_t) +
               values_.capacity() * sizeof(std::uint32_t);
    }

private:
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint32_t> values_;
    std::size_t mask_ = 0;
};

/// Hash of a vector of integers (FNV-ish via hash_combine).
template <typename Int>
std::size_t hash_int_vector(const std::vector<Int>& values) noexcept {
    std::size_t seed = 0x243f6a8885a308d3ull ^ values.size();
    for (const Int v : values) hash_combine(seed, static_cast<std::size_t>(v));
    return seed;
}

}  // namespace ppsc
