// Hashing utilities shared across the library.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
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

/// Open-addressed hash map from 64-bit keys to dense 32-bit indices: the
/// n-th distinct key inserted maps to n − 1.  The rule-table lookup of
/// Protocol (packed state pair → PairId), grown one pair at a time while
/// the builder adds transitions and read-only afterwards, sized by the
/// number of *non-silent* pairs instead of a Θ(|Q|²) triangular table.
///
/// Linear probing over a power-of-two table that doubles before its load
/// passes 0.5, so a lookup is one mix + a short probe run in two parallel
/// flat arrays.  Keys must not be the all-ones word (it marks an empty
/// slot); packed state pairs never are.
class DenseIndexMap {
public:
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
    static constexpr std::uint32_t kMissing = ~std::uint32_t{0};

    DenseIndexMap() = default;

    /// The index of `key`, and whether it was new: a new key gets the next
    /// dense index, size().  O(1) amortised.
    std::pair<std::uint32_t, bool> insert(std::uint64_t key) {
        PPSC_DASSERT(key != kEmptyKey);
        if (keys_.empty()) rehash(8);
        std::size_t slot = probe(key);
        if (keys_[slot] == key) return {values_[slot], false};
        if ((size_ + 1) * 2 > keys_.size()) {
            rehash(keys_.size() * 2);
            slot = probe(key);
        }
        keys_[slot] = key;
        values_[slot] = size_;
        return {size_++, true};
    }

    /// The index assigned to `key`, or kMissing.  O(1) expected.
    std::uint32_t find(std::uint64_t key) const noexcept {
        if (keys_.empty()) return kMissing;
        const std::size_t slot = probe(key);
        return keys_[slot] == key ? values_[slot] : kMissing;
    }

    /// Number of keys inserted.
    std::size_t size() const noexcept { return size_; }

    /// Heap footprint of the table arrays, for memory accounting.
    std::size_t memory_bytes() const noexcept {
        return keys_.capacity() * sizeof(std::uint64_t) +
               values_.capacity() * sizeof(std::uint32_t);
    }

private:
    /// The slot holding `key`, else the empty slot ending its probe run.
    std::size_t probe(std::uint64_t key) const noexcept {
        std::size_t slot = static_cast<std::size_t>(mix64(key)) & mask_;
        while (keys_[slot] != key && keys_[slot] != kEmptyKey) slot = (slot + 1) & mask_;
        return slot;
    }

    void rehash(std::size_t capacity) {
        std::vector<std::uint64_t> keys(capacity, kEmptyKey);
        std::vector<std::uint32_t> values(capacity, kMissing);
        std::swap(keys, keys_);
        std::swap(values, values_);
        mask_ = capacity - 1;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] == kEmptyKey) continue;
            const std::size_t slot = probe(keys[i]);
            keys_[slot] = keys[i];
            values_[slot] = values[i];
        }
    }

    std::vector<std::uint64_t> keys_;
    std::vector<std::uint32_t> values_;
    std::size_t mask_ = 0;
    std::uint32_t size_ = 0;
};

/// Open-addressed set of 32-bit indices into an array the caller owns, for
/// keys too wide to store inline (names, transitions): the caller supplies
/// an element's hash and an equality test against stored indices.  Each
/// slot keeps the index and 32 bits of its hash, so a probe compares
/// elements only on a hash match and growth rehashes without the caller.
/// Linear probing, doubling before the load passes 0.5.
class FlatIndexSet {
public:
    static constexpr std::uint32_t kMissing = ~std::uint32_t{0};

    /// The stored index i with `equal(i)` among those filed under `hash`,
    /// or kMissing.
    template <typename Equal>
    std::uint32_t find(std::uint64_t hash, Equal&& equal) const {
        if (slots_.empty()) return kMissing;
        const std::size_t slot = probe(static_cast<std::uint32_t>(hash), equal);
        return slots_[slot].index;
    }

    /// find(hash, equal) if that hits, else files `index` under `hash`:
    /// returns the stored index and whether it was `index`, newly inserted.
    template <typename Equal>
    std::pair<std::uint32_t, bool> insert(std::uint64_t hash, std::uint32_t index, Equal&& equal) {
        PPSC_DASSERT(index != kMissing);
        if (slots_.empty()) rehash(8);
        const auto tag = static_cast<std::uint32_t>(hash);
        std::size_t slot = probe(tag, equal);
        if (slots_[slot].index != kMissing) return {slots_[slot].index, false};
        if ((size_ + 1) * 2 > slots_.size()) {
            rehash(slots_.size() * 2);
            slot = empty_slot(tag);
        }
        slots_[slot] = {index, tag};
        ++size_;
        return {index, true};
    }

    std::size_t size() const noexcept { return size_; }

private:
    struct Slot {
        std::uint32_t index = kMissing;
        std::uint32_t tag = 0;  // low 32 bits of the element's hash
    };

    /// The slot of the matching element, else the empty slot ending the run.
    template <typename Equal>
    std::size_t probe(std::uint32_t tag, Equal&& equal) const {
        std::size_t slot = tag & mask_;
        while (slots_[slot].index != kMissing &&
               !(slots_[slot].tag == tag && equal(slots_[slot].index)))
            slot = (slot + 1) & mask_;
        return slot;
    }

    std::size_t empty_slot(std::uint32_t tag) const noexcept {
        std::size_t slot = tag & mask_;
        while (slots_[slot].index != kMissing) slot = (slot + 1) & mask_;
        return slot;
    }

    void rehash(std::size_t capacity) {
        std::vector<Slot> old(capacity);
        std::swap(old, slots_);
        mask_ = capacity - 1;
        for (const Slot& s : old)
            if (s.index != kMissing) slots_[empty_slot(s.tag)] = s;
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

/// Hash of a vector of integers (FNV-ish via hash_combine).
template <typename Int>
std::size_t hash_int_vector(const std::vector<Int>& values) noexcept {
    std::size_t seed = 0x243f6a8885a308d3ull ^ values.size();
    for (const Int v : values) hash_combine(seed, static_cast<std::size_t>(v));
    return seed;
}

}  // namespace ppsc
