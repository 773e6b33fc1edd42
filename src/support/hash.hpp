// Hashing utilities shared across the library.
#pragma once

#include <algorithm>
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

/// Open-addressed set of 32-bit indices into an array the caller owns, for
/// keys stored outside the table (names, transitions, state pairs,
/// reachability rows): the caller supplies an element's hash and an
/// equality test against stored indices.  Each slot keeps the index and 32
/// bits of its hash, so a probe compares elements only on a hash match and
/// growth rehashes without the caller.  Linear probing over a power-of-two
/// table, doubling in place before the load passes 0.5.
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
        if (slots_.empty()) clear(8);
        const auto tag = static_cast<std::uint32_t>(hash);
        std::size_t slot = probe(tag, equal);
        if (slots_[slot].index != kMissing) return {slots_[slot].index, false};
        if ((size_ + 1) * 2 > slots_.size()) {
            grow();
            slot = probe(tag, equal);
        }
        slots_[slot] = {index, tag};
        ++size_;
        return {index, true};
    }

    /// Empties the set into a table of `slots` slots (a power of two),
    /// keeping the capacity already allocated.
    void clear(std::size_t slots) {
        PPSC_DASSERT(std::has_single_bit(slots));
        slots_.assign(slots, Slot{});
        mask_ = slots - 1;
        size_ = 0;
    }

    /// Allocates room for `count` entries now: no later insert up to that
    /// size reallocates the table.
    void reserve(std::size_t count) {
        slots_.reserve(std::bit_ceil(std::max<std::size_t>(8, 2 * count)));
    }

    std::size_t size() const noexcept { return size_; }

    /// Heap footprint of the table, for memory accounting.
    std::size_t memory_bytes() const noexcept { return slots_.capacity() * sizeof(Slot); }

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

    /// Doubles the table in place, so growth within the capacity reserve()
    /// allocated reallocates nothing.  Entries are lifted out and re-filed
    /// one at a time in slot order, starting after an empty slot, so no old
    /// probe run straddles the start.  A re-filed entry never moves again,
    /// and each new probe passes only re-filed entries: a run in the new
    /// lower half ends at the lifted entry's own slot at the latest, and the
    /// new upper half has room for every entry filed there before the old
    /// runs wrapping to the front are reached.
    void grow() {
        const std::size_t old_size = slots_.size();
        std::size_t start = 0;
        while (slots_[start].index != kMissing) ++start;
        slots_.resize(2 * old_size);
        mask_ = 2 * old_size - 1;
        for (std::size_t k = 1; k < old_size; ++k) {
            Slot& lifted = slots_[(start + k) & (old_size - 1)];
            if (lifted.index == kMissing) continue;
            const Slot entry = std::exchange(lifted, Slot{});
            std::size_t slot = entry.tag & mask_;
            while (slots_[slot].index != kMissing) slot = (slot + 1) & mask_;
            slots_[slot] = entry;
        }
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
