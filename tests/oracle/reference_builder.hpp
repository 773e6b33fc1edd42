// Test oracle for protocol construction: ProtocolBuilder as it was built
// on node-based hash containers (a std::unordered_map per name, an
// std::unordered_set of packed transitions for dedup, and a pair → PairId
// std::unordered_map filled by a second pass in build()).  The production
// builder fills flat open-addressed tables as transitions arrive; fed the
// same calls, both must produce the same tables field for field.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "support/hash.hpp"

namespace ppsc::oracle {

/// Every table Protocol exposes, as the reference construction lays it out.
struct ReferenceTables {
    std::vector<std::string> names;
    std::vector<std::uint8_t> outputs;
    std::vector<Transition> transitions;
    std::vector<std::pair<StateId, StateId>> nonsilent_pairs;  // index = PairId
    std::unordered_map<std::uint64_t, Protocol::PairId> pair_of;
    std::vector<std::uint32_t> rule_offsets;
    std::vector<TransitionId> pair_rule_ids;
    std::vector<std::uint32_t> neighbor_offsets;
    std::vector<Protocol::PairNeighbor> neighbors;
    std::vector<Protocol::PairId> self_pair;
    std::vector<std::uint32_t> producing_offsets;
    std::vector<TransitionId> producing_ids;
    std::vector<std::string> input_names;
    std::vector<StateId> input_states;
    std::vector<AgentCount> leaders;  // count per state
    std::unordered_map<std::string, StateId> name_to_state;

    static std::uint64_t pack(StateId p, StateId q) {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p)) << 32) |
               static_cast<std::uint32_t>(q);
    }

    /// PairId of {p, q}, or kNoPair if the pair is silent.
    Protocol::PairId pair_id(StateId p, StateId q) const {
        if (p > q) std::swap(p, q);
        const auto it = pair_of.find(pack(p, q));
        return it == pair_of.end() ? Protocol::kNoPair : it->second;
    }
};

/// The reference builder: ProtocolBuilder's calls, node-based containers.
class ReferenceBuilder {
public:
    StateId add_state(std::string name, int output) {
        if (name_to_state_.contains(name))
            throw std::invalid_argument("ReferenceBuilder: duplicate state name '" + name + "'");
        const auto id = static_cast<StateId>(names_.size());
        name_to_state_.emplace(name, id);
        names_.push_back(std::move(name));
        outputs_.push_back(static_cast<std::uint8_t>(output));
        return id;
    }

    void add_transition(StateId p, StateId q, StateId p2, StateId q2) {
        if (p > q) std::swap(p, q);
        if (p2 > q2) std::swap(p2, q2);
        const Transition t{p, q, p2, q2};
        if (t.is_silent()) return;
        if (!seen_.insert({ReferenceTables::pack(p, q), ReferenceTables::pack(p2, q2)}).second)
            return;
        transitions_.push_back(t);
    }

    void set_input(std::string name, StateId state) {
        input_names_.push_back(std::move(name));
        input_states_.push_back(state);
    }

    void add_leaders(StateId state, AgentCount count) { leaders_.emplace_back(state, count); }

    ReferenceTables build() && {
        ReferenceTables r;
        r.names = std::move(names_);
        r.outputs = std::move(outputs_);
        r.transitions = std::move(transitions_);
        r.input_names = std::move(input_names_);
        r.input_states = std::move(input_states_);
        r.name_to_state = std::move(name_to_state_);
        const std::size_t n = r.names.size();
        r.leaders.assign(n, 0);
        for (const auto& [state, count] : leaders_)
            r.leaders[static_cast<std::size_t>(state)] += count;

        r.self_pair.assign(n, Protocol::kNoPair);
        std::vector<std::uint32_t> degree(n, 0);
        for (const Transition& t : r.transitions) {
            const auto [it, inserted] = r.pair_of.try_emplace(
                ReferenceTables::pack(t.pre1, t.pre2),
                static_cast<Protocol::PairId>(r.nonsilent_pairs.size()));
            if (!inserted) continue;
            r.nonsilent_pairs.emplace_back(t.pre1, t.pre2);
            if (t.pre1 == t.pre2) {
                r.self_pair[static_cast<std::size_t>(t.pre1)] = it->second;
            } else {
                ++degree[static_cast<std::size_t>(t.pre1)];
                ++degree[static_cast<std::size_t>(t.pre2)];
            }
        }

        const std::size_t num_pairs = r.nonsilent_pairs.size();
        r.rule_offsets.assign(num_pairs + 1, 0);
        for (const Transition& t : r.transitions)
            ++r.rule_offsets[r.pair_of.at(ReferenceTables::pack(t.pre1, t.pre2)) + 1];
        for (std::size_t i = 1; i <= num_pairs; ++i) r.rule_offsets[i] += r.rule_offsets[i - 1];
        r.pair_rule_ids.resize(r.transitions.size());
        std::vector<std::uint32_t> cursor(r.rule_offsets.begin(), r.rule_offsets.end() - 1);
        for (std::size_t i = 0; i < r.transitions.size(); ++i) {
            const Transition& t = r.transitions[i];
            r.pair_rule_ids[cursor[r.pair_of.at(ReferenceTables::pack(t.pre1, t.pre2))]++] =
                static_cast<TransitionId>(i);
        }

        r.neighbor_offsets.assign(n + 1, 0);
        for (std::size_t q = 0; q < n; ++q)
            r.neighbor_offsets[q + 1] = r.neighbor_offsets[q] + degree[q];
        r.neighbors.resize(r.neighbor_offsets[n]);
        std::vector<std::uint32_t> next(r.neighbor_offsets.begin(), r.neighbor_offsets.end() - 1);
        for (std::size_t i = 0; i < num_pairs; ++i) {
            const auto [q1, q2] = r.nonsilent_pairs[i];
            if (q1 == q2) continue;
            const auto id = static_cast<Protocol::PairId>(i);
            r.neighbors[next[static_cast<std::size_t>(q1)]++] = {q2, id};
            r.neighbors[next[static_cast<std::size_t>(q2)]++] = {q1, id};
        }

        std::vector<std::uint32_t> producing(n, 0);
        for (const Transition& t : r.transitions) {
            ++producing[static_cast<std::size_t>(t.post1)];
            if (t.post2 != t.post1) ++producing[static_cast<std::size_t>(t.post2)];
        }
        r.producing_offsets.assign(n + 1, 0);
        for (std::size_t q = 0; q < n; ++q)
            r.producing_offsets[q + 1] = r.producing_offsets[q] + producing[q];
        r.producing_ids.resize(r.producing_offsets[n]);
        std::vector<std::uint32_t> fill(r.producing_offsets.begin(), r.producing_offsets.end() - 1);
        for (std::size_t i = 0; i < r.transitions.size(); ++i) {
            const Transition& t = r.transitions[i];
            r.producing_ids[fill[static_cast<std::size_t>(t.post1)]++] =
                static_cast<TransitionId>(i);
            if (t.post2 != t.post1)
                r.producing_ids[fill[static_cast<std::size_t>(t.post2)]++] =
                    static_cast<TransitionId>(i);
        }
        return r;
    }

private:
    struct PackedHash {
        std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& key) const noexcept {
            std::size_t seed = static_cast<std::size_t>(key.first);
            hash_combine(seed, static_cast<std::size_t>(key.second));
            return seed;
        }
    };

    std::vector<std::string> names_;
    std::vector<std::uint8_t> outputs_;
    std::vector<Transition> transitions_;
    std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, PackedHash> seen_;
    std::vector<std::string> input_names_;
    std::vector<StateId> input_states_;
    std::vector<std::pair<StateId, AgentCount>> leaders_;
    std::unordered_map<std::string, StateId> name_to_state_;
};

}  // namespace ppsc::oracle
