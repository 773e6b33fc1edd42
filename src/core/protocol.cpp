#include "core/protocol.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "support/check.hpp"

namespace ppsc {

namespace {

/// Canonicalises an unordered pair (a, b) to a ≤ b.
void sort_pair(StateId& a, StateId& b) noexcept {
    if (a > b) std::swap(a, b);
}

std::uint64_t name_hash(std::string_view name) noexcept {
    return std::hash<std::string_view>{}(name);
}

/// The state named `name` in a name index over `names`.
std::optional<StateId> find_name(const FlatIndexSet& index, const std::vector<std::string>& names,
                                 std::string_view name) {
    const std::uint32_t id =
        index.find(name_hash(name), [&](std::uint32_t q) { return names[q] == name; });
    if (id == FlatIndexSet::kMissing) return std::nullopt;
    return static_cast<StateId>(id);
}

void require_text_name(std::string_view name, const char* where) {
    if (!is_text_name(name))
        throw std::invalid_argument(std::string(where) + ": name '" + std::string(name) +
                                    "' is empty, contains whitespace or starts with '#'");
}

}  // namespace

std::size_t Protocol::rule_table_bytes() const noexcept {
    const Tables& t = *tables_;
    return t.rule_offsets.capacity() * sizeof(std::uint32_t) +
           t.pair_rule_ids.capacity() * sizeof(TransitionId) +
           t.nonsilent_pairs.capacity() * sizeof(t.nonsilent_pairs[0]) +
           t.pair_ids.memory_bytes();
}

std::optional<StateId> Protocol::find_state(std::string_view name) const {
    return find_name(tables_->name_index, tables_->names, name);
}

bool Protocol::is_leaderless() const noexcept {
    return tables_->leaders.size() == 0;
}

Config Protocol::initial_config(std::span<const AgentCount> input) const {
    const Tables& t = *tables_;
    if (input.size() != t.input_states.size())
        throw std::invalid_argument("Protocol::initial_config: input arity mismatch");
    Config config = t.leaders;
    for (std::size_t i = 0; i < input.size(); ++i) {
        if (input[i] < 0)
            throw std::invalid_argument("Protocol::initial_config: negative input");
        config.add(t.input_states[i], input[i]);
    }
    if (config.size() < 2)
        throw std::invalid_argument(
            "Protocol::initial_config: configurations need at least two agents");
    return config;
}

Config Protocol::initial_config(AgentCount i) const {
    if (tables_->input_states.size() != 1)
        throw std::invalid_argument(
            "Protocol::initial_config(i): protocol does not have exactly one input variable");
    const AgentCount values[] = {i};
    return initial_config(values);
}

std::optional<int> Protocol::consensus_output(std::span<const AgentCount> counts) const {
    const std::vector<std::uint8_t>& outputs = tables_->outputs;
    PPSC_CHECK_MSG(counts.size() == outputs.size(),
                   "count row does not match the protocol's state count");
    std::optional<int> verdict;
    for (std::size_t q = 0; q < outputs.size(); ++q) {
        if (counts[q] == 0) continue;
        const int b = outputs[q];
        if (!verdict)
            verdict = b;
        else if (*verdict != b)
            return std::nullopt;
    }
    return verdict;
}

bool Protocol::enabled(const Config& config, const Transition& t) const noexcept {
    if (t.pre1 == t.pre2) return config[t.pre1] >= 2;
    return config[t.pre1] >= 1 && config[t.pre2] >= 1;
}

Config Protocol::fire(Config config, const Transition& t) const {
    config.add(t.pre1, -1);
    config.add(t.pre2, -1);
    config.add(t.post1, 1);
    config.add(t.post2, 1);
    return config;
}

std::vector<std::int64_t> Protocol::displacement(const Transition& t) const {
    std::vector<std::int64_t> delta(num_states(), 0);
    delta[static_cast<std::size_t>(t.pre1)] -= 1;
    delta[static_cast<std::size_t>(t.pre2)] -= 1;
    delta[static_cast<std::size_t>(t.post1)] += 1;
    delta[static_cast<std::size_t>(t.post2)] += 1;
    return delta;
}

std::string Protocol::to_text() const {
    const Tables& tb = *tables_;
    std::ostringstream os;
    os << "Protocol with " << num_states() << " states, " << num_transitions()
       << " non-silent transitions";
    os << (is_leaderless() ? " (leaderless)\n" : " (with leaders)\n");
    os << "  states:";
    for (std::size_t q = 0; q < num_states(); ++q)
        os << ' ' << tb.names[q] << "/" << static_cast<int>(tb.outputs[q]);
    os << "\n  inputs:";
    for (std::size_t i = 0; i < tb.input_names.size(); ++i)
        os << ' ' << tb.input_names[i] << "->"
           << tb.names[static_cast<std::size_t>(tb.input_states[i])];
    if (!is_leaderless()) os << "\n  leaders: " << tb.leaders.to_string(tb.names);
    os << "\n  transitions:\n";
    for (const Transition& t : tb.transitions) {
        os << "    " << tb.names[static_cast<std::size_t>(t.pre1)] << ','
           << tb.names[static_cast<std::size_t>(t.pre2)] << " -> "
           << tb.names[static_cast<std::size_t>(t.post1)] << ','
           << tb.names[static_cast<std::size_t>(t.post2)] << '\n';
    }
    return os.str();
}

std::string Protocol::to_dot() const {
    const Tables& tb = *tables_;
    std::ostringstream os;
    os << "digraph protocol {\n  rankdir=LR;\n";
    for (std::size_t q = 0; q < num_states(); ++q) {
        os << "  q" << q << " [label=\"" << tb.names[q] << "\", shape="
           << (tb.outputs[q] ? "doublecircle" : "circle") << "];\n";
    }
    for (const Transition& t : tb.transitions) {
        // Render each transition as a pair of edges annotated with the partner.
        os << "  q" << t.pre1 << " -> q" << t.post1 << " [label=\"with "
           << tb.names[static_cast<std::size_t>(t.pre2)] << "\"];\n";
        os << "  q" << t.pre2 << " -> q" << t.post2 << " [label=\"with "
           << tb.names[static_cast<std::size_t>(t.pre1)] << "\"];\n";
    }
    os << "}\n";
    return os.str();
}

// ---------------------------------------------------------------------------
// ProtocolBuilder

StateId ProtocolBuilder::add_state(std::string name, int output) {
    if (output != 0 && output != 1)
        throw std::invalid_argument("ProtocolBuilder::add_state: output must be 0 or 1");
    require_text_name(name, "ProtocolBuilder::add_state");
    const auto id = static_cast<std::uint32_t>(names_.size());
    if (!name_index_.insert(name_hash(name), id, [&](std::uint32_t q) { return names_[q] == name; })
             .second)
        throw std::invalid_argument("ProtocolBuilder::add_state: duplicate state name '" + name +
                                    "'");
    names_.push_back(std::move(name));
    outputs_.push_back(static_cast<std::uint8_t>(output));
    return static_cast<StateId>(id);
}

void ProtocolBuilder::add_transition(StateId p, StateId q, StateId p2, StateId q2) {
    const auto n = static_cast<StateId>(names_.size());
    for (const StateId s : {p, q, p2, q2}) {
        if (s < 0 || s >= n)
            throw std::invalid_argument("ProtocolBuilder::add_transition: unknown state id");
    }
    sort_pair(p, q);
    sort_pair(p2, q2);
    const Transition t{p, q, p2, q2};
    if (t.is_silent()) return;  // silent transitions are implicit
    // Full 32-bit ids in both keys: 16-bit packing would alias distinct
    // transitions once protocols pass 2¹⁶ states (the double-exponential
    // threshold family gets there).
    const std::uint64_t pre = Protocol::pack_pair(p, q);
    const std::uint64_t hash = mix64(mix64(pre) ^ Protocol::pack_pair(p2, q2));
    const auto id = static_cast<std::uint32_t>(transitions_.size());
    if (!transition_index_.insert(hash, id, [&](std::uint32_t i) { return transitions_[i] == t; })
             .second)
        return;
    transitions_.push_back(t);
    const auto [pair, new_pair] =
        pair_ids_.insert(mix64(pre), static_cast<std::uint32_t>(nonsilent_pairs_.size()),
                         [&](std::uint32_t i) { return nonsilent_pairs_[i] == std::pair{p, q}; });
    if (new_pair) nonsilent_pairs_.emplace_back(p, q);
    transition_pairs_.push_back(pair);
}

void ProtocolBuilder::add_transition(std::string_view p, std::string_view q, std::string_view p2,
                                     std::string_view q2) {
    add_transition(require_state(p), require_state(q), require_state(p2), require_state(q2));
}

std::optional<StateId> ProtocolBuilder::find_state(std::string_view name) const {
    return find_name(name_index_, names_, name);
}

StateId ProtocolBuilder::require_state(std::string_view name) const {
    const std::optional<StateId> state = find_state(name);
    if (!state)
        throw std::invalid_argument("ProtocolBuilder: unknown state name '" + std::string(name) +
                                    "'");
    return *state;
}

void ProtocolBuilder::set_input(std::string name, StateId state) {
    if (state < 0 || static_cast<std::size_t>(state) >= names_.size())
        throw std::invalid_argument("ProtocolBuilder::set_input: unknown state id");
    require_text_name(name, "ProtocolBuilder::set_input");
    for (const auto& existing : input_names_) {
        if (existing == name)
            throw std::invalid_argument("ProtocolBuilder::set_input: duplicate input variable '" +
                                        name + "'");
    }
    input_names_.push_back(std::move(name));
    input_states_.push_back(state);
}

void ProtocolBuilder::add_leaders(StateId state, AgentCount count) {
    if (state < 0 || static_cast<std::size_t>(state) >= names_.size())
        throw std::invalid_argument("ProtocolBuilder::add_leaders: unknown state id");
    if (count <= 0) throw std::invalid_argument("ProtocolBuilder::add_leaders: count must be > 0");
    leaders_.emplace_back(state, count);
}

Protocol ProtocolBuilder::build() && {
    if (names_.empty()) throw std::invalid_argument("ProtocolBuilder::build: no states");
    if (input_names_.empty())
        throw std::invalid_argument("ProtocolBuilder::build: no input variable declared");

    auto tables = std::make_shared<Protocol::Tables>();
    Protocol::Tables& p = *tables;
    p.names = std::move(names_);
    p.outputs = std::move(outputs_);
    p.transitions = std::move(transitions_);
    p.input_names = std::move(input_names_);
    p.input_states = std::move(input_states_);
    p.name_index = std::move(name_index_);
    p.pair_ids = std::move(pair_ids_);
    p.nonsilent_pairs = std::move(nonsilent_pairs_);

    Config leaders(p.names.size());
    for (const auto& [state, count] : leaders_) leaders.add(state, count);
    p.leaders = std::move(leaders);

    // Sparse non-silent pair structure: add_transition gave each pre-pair
    // its PairId in first-seen transition order (the order every
    // downstream consumer, and therefore every trajectory, depends on);
    // here come the self-pair ids and the CSR adjacency of the non-self
    // "has a non-silent rule with" relation.  Simulators use the adjacency
    // as the per-pair weight-delta table for incremental pair-weight
    // maintenance.
    const std::size_t n = p.names.size();
    const std::size_t num_pairs = p.nonsilent_pairs.size();
    p.self_pair.assign(n, Protocol::kNoPair);
    std::vector<std::uint32_t> degree(n, 0);
    for (std::size_t i = 0; i < num_pairs; ++i) {
        const auto [q1, q2] = p.nonsilent_pairs[i];
        if (q1 == q2) {
            p.self_pair[static_cast<std::size_t>(q1)] = static_cast<Protocol::PairId>(i);
        } else {
            ++degree[static_cast<std::size_t>(q1)];
            ++degree[static_cast<std::size_t>(q2)];
        }
    }

    // Compact CSR rule table keyed by PairId: count rules per pair,
    // prefix-sum into offsets, then fill.  TransitionIds stay ordered
    // within a pair (fill order follows transition order).
    p.rule_offsets.assign(num_pairs + 1, 0);
    for (const Protocol::PairId pair : transition_pairs_) ++p.rule_offsets[pair + 1];
    for (std::size_t i = 1; i <= num_pairs; ++i)
        p.rule_offsets[i] += p.rule_offsets[i - 1];
    p.pair_rule_ids.resize(p.transitions.size());
    std::vector<std::uint32_t> cursor(p.rule_offsets.begin(), p.rule_offsets.end() - 1);
    for (std::size_t i = 0; i < transition_pairs_.size(); ++i)
        p.pair_rule_ids[cursor[transition_pairs_[i]]++] = static_cast<TransitionId>(i);

    p.neighbor_offsets.assign(n + 1, 0);
    for (std::size_t q = 0; q < n; ++q)
        p.neighbor_offsets[q + 1] = p.neighbor_offsets[q] + degree[q];
    p.neighbors.resize(p.neighbor_offsets[n]);
    std::vector<std::uint32_t> neighbor_cursor(p.neighbor_offsets.begin(),
                                               p.neighbor_offsets.end() - 1);
    for (std::size_t i = 0; i < p.nonsilent_pairs.size(); ++i) {
        const auto [q1, q2] = p.nonsilent_pairs[i];
        if (q1 == q2) continue;
        const auto id = static_cast<Protocol::PairId>(i);
        p.neighbors[neighbor_cursor[static_cast<std::size_t>(q1)]++] = {q2, id};
        p.neighbors[neighbor_cursor[static_cast<std::size_t>(q2)]++] = {q1, id};
    }

    // Post-state transition incidence (transitions_producing): count, prefix
    // sum, fill.  Scanning transitions in id order keeps every per-state list
    // ascending — the order the trap worklist relies on.
    std::vector<std::uint32_t> producing_degree(n, 0);
    for (const Transition& t : p.transitions) {
        ++producing_degree[static_cast<std::size_t>(t.post1)];
        if (t.post2 != t.post1) ++producing_degree[static_cast<std::size_t>(t.post2)];
    }
    p.producing_offsets.assign(n + 1, 0);
    for (std::size_t q = 0; q < n; ++q)
        p.producing_offsets[q + 1] = p.producing_offsets[q] + producing_degree[q];
    p.producing_ids.resize(p.producing_offsets[n]);
    std::vector<std::uint32_t> producing_cursor(p.producing_offsets.begin(),
                                                p.producing_offsets.end() - 1);
    for (std::size_t i = 0; i < p.transitions.size(); ++i) {
        const Transition& t = p.transitions[i];
        p.producing_ids[producing_cursor[static_cast<std::size_t>(t.post1)]++] =
            static_cast<TransitionId>(i);
        if (t.post2 != t.post1)
            p.producing_ids[producing_cursor[static_cast<std::size_t>(t.post2)]++] =
                static_cast<TransitionId>(i);
    }
    Protocol protocol;
    protocol.tables_ = std::move(tables);
    return protocol;
}

}  // namespace ppsc
