// The population protocol model (Section 2.2 of the paper).
//
// A protocol P = (Q, T, L, X, I, O):
//   Q — finite set of states (indexed 0..n-1, with human-readable names);
//   T — transitions, mapping unordered state pairs to unordered state pairs;
//   L — leader multiset (empty for leaderless protocols);
//   X — input variables;
//   I — input mapping X → Q;
//   O — output mapping Q → {0, 1}.
//
// Totality: the paper assumes every pair {p,q} enables at least one
// transition.  We store only *non-silent* transitions; any pair without an
// explicit rule implicitly has the silent transition p,q ↦ p,q, so every
// Protocol built here is total by construction.
//
// Protocols are immutable after construction; build them with
// ProtocolBuilder.  A Protocol is a handle to one shared, immutable table
// block, so copying it (into a Simulator, a sweep, a Verifier) is a
// reference-count bump, not a copy of Θ(|Q| + |T|) tables.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"

namespace ppsc {

/// One transition p,q ↦ p',q' in canonical form (pre1 ≤ pre2, post1 ≤ post2).
struct Transition {
    StateId pre1 = 0;
    StateId pre2 = 0;
    StateId post1 = 0;
    StateId post2 = 0;

    bool operator==(const Transition&) const noexcept = default;

    bool is_silent() const noexcept { return pre1 == post1 && pre2 == post2; }
};

using TransitionId = std::int32_t;

class ProtocolBuilder;

class Protocol {
public:
    // Copies share the tables.  There is deliberately no move constructor:
    // a move is a copy, so a moved-from Protocol stays a valid handle to
    // the same protocol.
    Protocol(const Protocol&) = default;
    Protocol& operator=(const Protocol&) = default;

    std::size_t num_states() const noexcept { return tables_->names.size(); }
    std::size_t num_transitions() const noexcept { return tables_->transitions.size(); }

    const std::string& state_name(StateId q) const {
        return tables_->names.at(static_cast<std::size_t>(q));
    }
    std::span<const std::string> state_names() const noexcept { return tables_->names; }

    /// Looks up a state by name; nullopt if absent.
    std::optional<StateId> find_state(std::string_view name) const;

    /// O(q) ∈ {0,1}.
    int output(StateId q) const { return tables_->outputs.at(static_cast<std::size_t>(q)); }

    /// All non-silent transitions, each with a stable TransitionId equal to
    /// its index in this span (used by Parikh images).
    std::span<const Transition> transitions() const noexcept { return tables_->transitions; }

    /// Index into nonsilent_pairs().
    using PairId = std::uint32_t;
    static constexpr PairId kNoPair = static_cast<PairId>(-1);

    /// PairId of the unordered pair {p, q}, or kNoPair if the pair is
    /// silent.  The hot-path lookup: one open-addressed hash probe over the
    /// non-silent pairs only, so the table is Θ(#non-silent pairs) rather
    /// than Θ(|Q|²) and rule-sparse protocols scale past |Q| = 10⁵.
    PairId pair_id(StateId p, StateId q) const {
        if (p > q) std::swap(p, q);
        const Tables& t = *tables_;
        return t.pair_ids.find(mix64(pack_pair(p, q)), [&](PairId id) {
            return t.nonsilent_pairs[id] == std::pair{p, q};
        });
    }

    /// The rules of the non-silent pair `id` as indices into transitions(),
    /// in transition-declaration order: a compact CSR keyed by PairId, so
    /// it costs Θ(#non-silent pairs).
    std::span<const TransitionId> rules_for_pair_id(PairId id) const {
        const Tables& t = *tables_;
        PPSC_DASSERT(static_cast<std::size_t>(id) + 1 < t.rule_offsets.size());
        const std::uint32_t begin = t.rule_offsets[id];
        const std::uint32_t end = t.rule_offsets[id + 1];
        return {t.pair_rule_ids.data() + begin, static_cast<std::size_t>(end - begin)};
    }

    /// Non-silent successor pairs of the unordered pair {p, q} as indices
    /// into transitions().  Empty span ⇒ the pair is silent.
    std::span<const TransitionId> rules_for_pair(StateId p, StateId q) const {
        const PairId id = pair_id(p, q);
        if (id == kNoPair) return {};
        return rules_for_pair_id(id);
    }

    /// True iff {p,q} has no non-silent rule.  O(1).
    bool pair_is_silent(StateId p, StateId q) const { return pair_id(p, q) == kNoPair; }

    /// Heap bytes held by the pair → rules lookup structures (the hash
    /// table plus the compact CSR): Θ(#non-silent pairs), independent of
    /// |Q|².
    std::size_t rule_table_bytes() const noexcept;

    /// The distinct non-silent unordered pre-pairs {p, q} (canonical p ≤ q),
    /// in a stable order — the index of a pair in this span is its PairId.
    /// Simulators sample fired interactions weight-proportionally over this
    /// list.
    std::span<const std::pair<StateId, StateId>> nonsilent_pairs() const noexcept {
        return tables_->nonsilent_pairs;
    }

    /// One entry of the per-state weight-delta table: changing the count of
    /// state q by Δ changes the ordered weight of the non-silent pair
    /// `pair` = {q, partner} by 2·Δ·count(partner).
    struct PairNeighbor {
        StateId partner;
        PairId pair;
    };

    /// CSR adjacency of the non-self "has a non-silent rule with" relation:
    /// for each partner p ≠ q of q, the PairId of {q, p}.  This is the
    /// per-pair weight-delta table that lets a simulator keep a Fenwick tree
    /// over ordered pair weights in sync in O(deg(q) · log #pairs) per count
    /// change.
    std::span<const PairNeighbor> pair_neighbors(StateId q) const {
        const Tables& t = *tables_;
        const auto i = static_cast<std::size_t>(q);
        PPSC_DASSERT(i + 1 < t.neighbor_offsets.size());
        return {t.neighbors.data() + t.neighbor_offsets[i],
                static_cast<std::size_t>(t.neighbor_offsets[i + 1] - t.neighbor_offsets[i])};
    }

    /// PairId of the self pair {q, q}, or kNoPair if it is silent.  The
    /// ordered weight of a self pair is count(q)·(count(q) − 1).
    PairId self_pair(StateId q) const {
        PPSC_DASSERT(static_cast<std::size_t>(q) < tables_->self_pair.size());
        return tables_->self_pair[static_cast<std::size_t>(q)];
    }

    /// Transition-incidence index: the TransitionIds whose *post* states
    /// include q (each transition listed once even when post1 == post2), in
    /// ascending TransitionId order.  CSR over all states, Θ(|Q| + |T|)
    /// memory.  This is the reactivation set of worklist fixpoints over
    /// shrinking state sets: removing q can only newly violate transitions
    /// that produce q.
    std::span<const TransitionId> transitions_producing(StateId q) const {
        const Tables& t = *tables_;
        const auto i = static_cast<std::size_t>(q);
        PPSC_DASSERT(i + 1 < t.producing_offsets.size());
        return {t.producing_ids.data() + t.producing_offsets[i],
                static_cast<std::size_t>(t.producing_offsets[i + 1] - t.producing_offsets[i])};
    }

    /// Leader multiset L (all-zero for leaderless protocols).
    const Config& leaders() const noexcept { return tables_->leaders; }
    bool is_leaderless() const noexcept;

    /// Input variables in declaration order.
    std::span<const std::string> input_variables() const noexcept { return tables_->input_names; }
    StateId input_state(std::size_t var_index) const {
        return tables_->input_states.at(var_index);
    }

    /// IC(m) = L + Σ_x m(x)·I(x).  `input` is indexed like
    /// input_variables().  Throws std::invalid_argument on size mismatch
    /// or |IC(m)| < 2 (configurations have at least two agents).
    Config initial_config(std::span<const AgentCount> input) const;

    /// IC(i) for single-input protocols; throws if |X| != 1.
    Config initial_config(AgentCount i) const;

    /// O(C): 0 or 1 if all agents agree, nullopt if mixed or C empty.
    std::optional<int> consensus_output(const Config& config) const {
        return consensus_output(std::span<const AgentCount>(config.counts()));
    }

    /// O(C) of a count row (counts[q] agents in state q).  Throws
    /// std::logic_error unless the row has exactly |Q| entries.
    std::optional<int> consensus_output(std::span<const AgentCount> counts) const;

    /// Is transition `t` enabled at `config` (C ≥ pre)?
    bool enabled(const Config& config, const Transition& t) const noexcept;

    /// Fires `t` at `config` (C − pre + post).  Caller must ensure
    /// enabledness; violations throw via Config arithmetic.
    Config fire(Config config, const Transition& t) const;

    /// Displacement Δt ∈ Z^Q of one transition (Section 5.1).
    std::vector<std::int64_t> displacement(const Transition& t) const;

    /// Human-readable multi-line description.
    std::string to_text() const;

    /// GraphViz rendering of the transition structure.
    std::string to_dot() const;

private:
    friend class ProtocolBuilder;
    Protocol() = default;

    /// Packs the canonical pair p ≤ q into the pair lookup key.
    static std::uint64_t pack_pair(StateId p, StateId q) noexcept {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p)) << 32) |
               static_cast<std::uint32_t>(q);
    }

    /// Everything a built protocol holds, filled once by
    /// ProtocolBuilder::build() and never modified afterwards.
    struct Tables {
        std::vector<std::string> names;
        std::vector<std::uint8_t> outputs;
        std::vector<Transition> transitions;
        // Compact CSR rule table keyed by PairId: the rules of non-silent
        // pair id are pair_rule_ids[rule_offsets[id] .. rule_offsets[id+1]).
        std::vector<std::uint32_t> rule_offsets;
        std::vector<TransitionId> pair_rule_ids;
        // Pair → PairId lookup: the PairIds of the non-silent pairs only
        // (a miss ⇔ silent), hashed on mix64(pack_pair(p, q)) and compared
        // against nonsilent_pairs.
        FlatIndexSet pair_ids;
        // Sparse non-silent pair structure (see nonsilent_pairs()/pair_neighbors).
        std::vector<std::pair<StateId, StateId>> nonsilent_pairs;
        std::vector<std::uint32_t> neighbor_offsets;  // size |Q|+1
        std::vector<PairNeighbor> neighbors;          // flat, grouped by state
        std::vector<PairId> self_pair;                // size |Q|, kNoPair if silent
        // Post-state transition incidence (see transitions_producing).
        std::vector<std::uint32_t> producing_offsets;  // size |Q|+1
        std::vector<TransitionId> producing_ids;       // flat, ascending per state
        std::vector<std::string> input_names;
        std::vector<StateId> input_states;
        Config leaders{0};
        FlatIndexSet name_index;  // StateIds, hashed on their names
    };

    std::shared_ptr<const Tables> tables_;
};

/// Separators of the text format (core/protocol_parser.hpp): the bytes
/// `std::isspace` accepts in the "C" locale.
constexpr bool is_text_space(char c) noexcept {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// True iff `name` survives format_protocol → parse_protocol as one token:
/// non-empty, no separator, and no leading '#' (which starts a comment).
constexpr bool is_text_name(std::string_view name) noexcept {
    if (name.empty() || name.front() == '#') return false;
    for (const char c : name)
        if (is_text_space(c)) return false;
    return true;
}

/// Incremental, validating construction of protocols.
///
/// The builder fills the flat tables a Protocol keeps as it goes: a
/// transition gets its pre-pair's PairId on arrival (first-seen order),
/// duplicates are dropped through an open-addressed index, and names are
/// indexed once, so build() only lays out the CSR tables.
///
/// Example (the 2-state "at least one agent in A" detector):
///     ProtocolBuilder b;
///     auto a   = b.add_state("A", 1);
///     auto x   = b.add_state("X", 0);
///     b.add_transition(a, x, a, a);
///     b.set_input("x", x);
///     Protocol p = std::move(b).build();
class ProtocolBuilder {
public:
    /// Declares a state. Throws std::invalid_argument on a duplicate name,
    /// a name the text format cannot carry (see is_text_name), or output
    /// not in {0,1}.
    StateId add_state(std::string name, int output);

    /// Adds the transition {p,q} ↦ {p2,q2} (unordered on both sides).
    /// Silent transitions are accepted and ignored; duplicates are merged.
    void add_transition(StateId p, StateId q, StateId p2, StateId q2);

    /// Name-based overload for readable construction code.
    void add_transition(std::string_view p, std::string_view q, std::string_view p2,
                        std::string_view q2);

    /// Declares input variable `name` mapped to `state`.  Throws
    /// std::invalid_argument on a duplicate or a name the text format
    /// cannot carry.
    void set_input(std::string name, StateId state);

    /// Adds `count` leader agents in `state`.
    void add_leaders(StateId state, AgentCount count);

    std::size_t num_states() const noexcept { return names_.size(); }

    /// Looks up a declared state by name; nullopt if absent.
    std::optional<StateId> find_state(std::string_view name) const;

    /// Finalises the protocol. Throws std::invalid_argument if no states or
    /// no input variable were declared.
    Protocol build() &&;

private:
    StateId require_state(std::string_view name) const;

    std::vector<std::string> names_;
    std::vector<std::uint8_t> outputs_;
    FlatIndexSet name_index_;  // StateIds, hashed on their names
    std::vector<Transition> transitions_;
    FlatIndexSet transition_index_;  // TransitionIds, hashed on (pre, post)
    std::vector<Protocol::PairId> transition_pairs_;  // PairId of each transition
    FlatIndexSet pair_ids_;  // PairIds, hashed on the packed canonical pre-pair
    std::vector<std::pair<StateId, StateId>> nonsilent_pairs_;  // by PairId
    std::vector<std::string> input_names_;
    std::vector<StateId> input_states_;
    std::vector<std::pair<StateId, AgentCount>> leaders_;
};

}  // namespace ppsc
