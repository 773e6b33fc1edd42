#include "verify/reachability.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "support/check.hpp"
#include "support/hash.hpp"

namespace ppsc {

namespace {

/// Initial index-table size of every exploration.  Growth doubles in
/// place, so the rehash work is O(nodes) in total, and a reused arena keeps
/// the largest table it ever reached as capacity.
constexpr std::size_t kInitialSlots = 256;

/// Enumerates all multisets of `population` agents over `counts.size()`
/// states into `counts`, invoking `emit` for each.
template <typename Emit>
void enumerate_slice(std::span<AgentCount> counts, AgentCount population, Emit&& emit) {
    const std::size_t num_states = counts.size();
    // Recursive distribution of `population` agents over the states.
    auto recurse = [&](auto&& self, std::size_t state, AgentCount remaining) -> void {
        if (state + 1 == num_states) {
            counts[state] = remaining;
            emit();
            return;
        }
        for (AgentCount c = remaining; c >= 0; --c) {
            counts[state] = c;
            self(self, state + 1, remaining - c);
        }
    };
    if (num_states > 0) recurse(recurse, 0, population);
}

}  // namespace

void ReachabilityGraph::reset(const Protocol& protocol) {
    protocol_ = &protocol;
    width_ = protocol.num_states();
    num_nodes_ = 0;
    rows_.clear();
    index_.clear(kInitialSlots);
    scratch_.assign(width_, 0);
    // Keys depend on the state index only, so a wider protocol extends them.
    for (std::size_t q = state_keys_.size(); q < width_; ++q)
        state_keys_.push_back(mix64(0x9e3779b97f4a7c15ull * (q + 1)) | 1u);
    offsets_.assign(1, 0);
    targets_.clear();
    roots_.clear();
    reverse_offsets_.clear();
    reverse_targets_.clear();
}

std::uint64_t ReachabilityGraph::hash_row(std::span<const AgentCount> counts) const noexcept {
    std::uint64_t hash = 0;
    for (std::size_t q = 0; q < counts.size(); ++q)
        hash += static_cast<std::uint64_t>(counts[q]) * state_keys_[q];
    return hash;
}

NodeId ReachabilityGraph::intern(std::uint64_t hash, const ReachabilityOptions& options) {
    const std::span<const AgentCount> key(scratch_);
    const auto same_row = [&](std::uint32_t id) {
        return std::ranges::equal(key, row(static_cast<NodeId>(id)));
    };
    const std::uint32_t found = index_.find(mix64(hash), same_row);
    if (found != FlatIndexSet::kMissing) return static_cast<NodeId>(found);
    // A new node: check the budget before the row is appended or indexed,
    // so an abort leaves the index consistent with the rows.
    if (num_nodes() >= options.max_nodes ||
        num_nodes() >= static_cast<std::size_t>(std::numeric_limits<NodeId>::max()))
        throw std::length_error("ReachabilityGraph: node budget exhausted (raise max_nodes)");
    const auto id = static_cast<NodeId>(num_nodes());
    rows_.insert(rows_.end(), key.begin(), key.end());
    ++num_nodes_;
    index_.insert(mix64(hash), static_cast<std::uint32_t>(id), same_row);
    return id;
}

void ReachabilityGraph::close(const ReachabilityOptions& options) {
    // Interning BFS.  New nodes are appended, so processing ids in order is
    // the BFS, and each node's successor list lands in the CSR in id order.
    const std::span<const Transition> transitions = protocol_->transitions();
    const std::uint64_t* const keys = state_keys_.data();
    AgentCount* const scratch = scratch_.data();
    NodeId node = 0;
    std::uint64_t node_hash = 0;
    // Fires `rule` on the scratch row, interns the successor, and undoes the
    // move: the scratch row holds `node`'s counts again afterwards.  The
    // hash is linear in the counts, so the successor's costs four key reads.
    const auto fire_rule = [&](TransitionId rule) {
        const Transition& t = transitions[static_cast<std::size_t>(rule)];
        --scratch[t.pre1];
        --scratch[t.pre2];
        ++scratch[t.post1];
        ++scratch[t.post2];
        const NodeId target = intern(node_hash + keys[t.post1] + keys[t.post2] - keys[t.pre1] -
                                         keys[t.pre2],
                                     options);
        --scratch[t.post1];
        --scratch[t.post2];
        ++scratch[t.pre1];
        ++scratch[t.pre2];
        if (target != node) out_.push_back(target);
    };
    for (; static_cast<std::size_t>(node) < num_nodes(); ++node) {
        const std::span<const AgentCount> current = row(node);
        std::copy(current.begin(), current.end(), scratch);  // rows_ may grow below
        node_hash = hash_row(current);
        out_.clear();
        // Walk the non-silent-pair CSR restricted to the support: every
        // enabled pair with at least one rule is reached through the
        // neighbour lists of its (occupied) endpoints, each unordered pair
        // exactly once (self pairs via self_pair, non-self pairs from their
        // lower endpoint).  Silent support pairs are never touched, so the
        // cost is Σ_{q ∈ supp} deg(q) + rules fired.
        for (StateId q = 0; static_cast<std::size_t>(q) < width_; ++q) {
            if (scratch[q] == 0) continue;
            if (scratch[q] >= 2) {
                const Protocol::PairId self = protocol_->self_pair(q);
                if (self != Protocol::kNoPair) {
                    for (const TransitionId rule : protocol_->rules_for_pair_id(self))
                        fire_rule(rule);
                }
            }
            for (const Protocol::PairNeighbor& neighbor : protocol_->pair_neighbors(q)) {
                if (neighbor.partner < q || scratch[neighbor.partner] == 0) continue;
                for (const TransitionId rule : protocol_->rules_for_pair_id(neighbor.pair))
                    fire_rule(rule);
            }
        }
        std::sort(out_.begin(), out_.end());
        out_.erase(std::unique(out_.begin(), out_.end()), out_.end());
        targets_.insert(targets_.end(), out_.begin(), out_.end());
        if (targets_.size() > std::numeric_limits<std::uint32_t>::max())
            throw std::length_error("ReachabilityGraph: edge count exceeds the CSR offset range");
        offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
    }
}

void ReachabilityGraph::reexplore(const Protocol& protocol, std::span<const Config> roots,
                                  const ReachabilityOptions& options) {
    if (roots.empty())
        throw std::invalid_argument("ReachabilityGraph::explore: no root configurations");
    const AgentCount population = roots.front().size();
    for (const Config& root : roots) {
        if (root.num_states() != protocol.num_states())
            throw std::invalid_argument("ReachabilityGraph::explore: root dimension mismatch");
        if (root.size() != population)
            throw std::invalid_argument(
                "ReachabilityGraph::explore: roots have different population sizes");
        if (population < 2)
            throw std::invalid_argument(
                "ReachabilityGraph::explore: configurations need at least two agents");
    }

    reset(protocol);
    for (const Config& root : roots) {
        std::copy(root.counts().begin(), root.counts().end(), scratch_.begin());
        roots_.push_back(intern(hash_row(scratch_), options));
    }
    close(options);
}

void ReachabilityGraph::reserve(std::size_t width, std::size_t nodes, std::size_t edges) {
    rows_.reserve(nodes * width);
    // reset() starts every exploration's index at kInitialSlots.
    index_.reserve(std::max(kInitialSlots / 2, nodes));
    scratch_.reserve(width);
    state_keys_.reserve(width);
    offsets_.reserve(nodes + 1);
    targets_.reserve(edges);
    scc_stack_.reserve(nodes);
    scc_frames_.reserve(nodes);
}

ReachabilityGraph ReachabilityGraph::explore(const Protocol& protocol,
                                             std::span<const Config> roots,
                                             const ReachabilityOptions& options) {
    ReachabilityGraph graph;
    graph.reexplore(protocol, roots, options);
    return graph;
}

ReachabilityGraph ReachabilityGraph::full_slice(const Protocol& protocol, AgentCount population,
                                                const ReachabilityOptions& options) {
    if (population < 2)
        throw std::invalid_argument(
            "ReachabilityGraph::full_slice: configurations need at least two agents");
    ReachabilityGraph graph;
    graph.reset(protocol);
    enumerate_slice(graph.scratch_, population,
                    [&] { graph.intern(graph.hash_row(graph.scratch_), options); });
    graph.close(options);
    return graph;
}

Config ReachabilityGraph::config(NodeId node) const {
    if (node < 0 || static_cast<std::size_t>(node) >= num_nodes())
        throw std::out_of_range("ReachabilityGraph::config: bad node id");
    const std::span<const AgentCount> counts = row(node);
    return Config::from_counts(std::vector<AgentCount>(counts.begin(), counts.end()));
}

std::optional<NodeId> ReachabilityGraph::find(const Config& config) const {
    if (config.num_states() != width_) return std::nullopt;
    const std::span<const AgentCount> key(config.counts());
    const std::uint32_t id = index_.find(mix64(hash_row(key)), [&](std::uint32_t i) {
        return std::ranges::equal(key, row(static_cast<NodeId>(i)));
    });
    if (id == FlatIndexSet::kMissing) return std::nullopt;
    return static_cast<NodeId>(id);
}

std::span<const NodeId> ReachabilityGraph::successors(NodeId node) const {
    if (node < 0 || static_cast<std::size_t>(node) + 1 >= offsets_.size())
        throw std::out_of_range("ReachabilityGraph::successors: bad node id");
    return out_edges(static_cast<std::size_t>(node));
}

ReachabilityGraph::SccResult ReachabilityGraph::compute_sccs() const {
    // Pearce's iterative one-word Tarjan (PEA_FIND_SCC2) over the CSR.
    // rindex lives in result.component_of: 0 = unvisited; a visited node
    // not yet in a component holds its DFS index, lowered to the smallest
    // index it reaches among such nodes (Tarjan's low link); a completed
    // node holds its component's id.  Ids count down from n, so they exceed
    // every live DFS index (at most the number of unassigned visited
    // nodes) and comparisons against completed nodes never lower a link.
    // The DFS and its root tests are Tarjan's, so components complete in
    // Tarjan's order; the ids are remapped to that completion order at the
    // end, so every inter-component edge goes from a larger to a smaller id.
    const std::size_t n = num_nodes();
    SccResult result;
    std::vector<std::int32_t>& rindex = result.component_of;
    rindex.assign(n, 0);
    std::vector<NodeId>& stack = scc_stack_;
    std::vector<SccFrame>& call_stack = scc_frames_;
    stack.clear();
    call_stack.clear();
    // 64-bit counters: the next DFS index can reach n + 1.
    std::int64_t next_index = 1;
    auto next_component = static_cast<std::int64_t>(n);

    const auto visit = [&](std::size_t v) {
        rindex[v] = static_cast<std::int32_t>(next_index++);
        call_stack.push_back({static_cast<NodeId>(v), offsets_[v], true});
    };
    // Lowers `frame`'s link to `link`, if smaller.
    const auto lower = [&](SccFrame& frame, std::int32_t link) {
        std::int32_t& own = rindex[static_cast<std::size_t>(frame.node)];
        if (link < own) {
            own = link;
            frame.root = false;
        }
    };

    for (std::size_t start = 0; start < n; ++start) {
        if (rindex[start] != 0) continue;
        visit(start);
        while (!call_stack.empty()) {
            SccFrame& frame = call_stack.back();
            const auto node = static_cast<std::size_t>(frame.node);
            const std::uint32_t end = offsets_[node + 1];
            bool descended = false;
            while (frame.edge < end) {
                const auto next = static_cast<std::size_t>(targets_[frame.edge++]);
                if (rindex[next] == 0) {
                    visit(next);  // invalidates `frame`
                    descended = true;
                    break;
                }
                lower(frame, rindex[next]);
            }
            if (descended) continue;
            const bool root = frame.root;
            call_stack.pop_back();
            if (root) {
                // node and the stacked nodes visited after it form its
                // component; their DFS indices are released.
                const std::int32_t own = rindex[node];
                const auto id = static_cast<std::int32_t>(next_component--);
                while (!stack.empty() && own <= rindex[static_cast<std::size_t>(stack.back())]) {
                    rindex[static_cast<std::size_t>(stack.back())] = id;
                    stack.pop_back();
                    --next_index;
                }
                rindex[node] = id;
                --next_index;
            } else {
                stack.push_back(static_cast<NodeId>(node));
            }
            if (!call_stack.empty()) lower(call_stack.back(), rindex[node]);
        }
    }

    result.num_components = static_cast<std::int32_t>(static_cast<std::int64_t>(n) - next_component);
    for (std::int32_t& component : rindex)
        component = static_cast<std::int32_t>(static_cast<std::int64_t>(n) - component);

    result.is_bottom.assign(static_cast<std::size_t>(result.num_components), true);
    for (std::size_t node = 0; node < n; ++node) {
        for (const NodeId target : out_edges(node)) {
            if (result.component_of[node] !=
                result.component_of[static_cast<std::size_t>(target)])
                result.is_bottom[static_cast<std::size_t>(result.component_of[node])] = false;
        }
    }
    return result;
}

std::vector<std::int8_t> bottom_scc_outputs(const ReachabilityGraph& graph,
                                            const ReachabilityGraph::SccResult& scc) {
    // 2 marks a bottom component none of whose members was seen yet; every
    // component has a member, so none is left at 2.
    std::vector<std::int8_t> value(static_cast<std::size_t>(scc.num_components));
    for (std::size_t c = 0; c < value.size(); ++c) value[c] = scc.is_bottom[c] ? 2 : -1;
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        const auto component = static_cast<std::size_t>(scc.component_of[node]);
        if (!scc.is_bottom[component]) continue;
        const std::optional<int> member =
            graph.protocol().consensus_output(graph.row(static_cast<NodeId>(node)));
        const std::int8_t v = member ? static_cast<std::int8_t>(*member) : std::int8_t{-1};
        if (value[component] == 2)
            value[component] = v;
        else if (value[component] != v)
            value[component] = -1;
    }
    return value;
}

void ReachabilityGraph::build_reverse_csr() const {
    if (!reverse_offsets_.empty() || num_nodes() == 0) return;
    // Counting sort of the edge list by target: two passes over the forward
    // CSR, two contiguous arrays, no per-node vectors.
    reverse_offsets_.assign(num_nodes() + 1, 0);
    for (const NodeId target : targets_) ++reverse_offsets_[static_cast<std::size_t>(target) + 1];
    for (std::size_t i = 1; i < reverse_offsets_.size(); ++i)
        reverse_offsets_[i] += reverse_offsets_[i - 1];
    reverse_targets_.resize(reverse_offsets_.back());
    std::vector<std::uint32_t> cursor(reverse_offsets_.begin(), reverse_offsets_.end() - 1);
    for (std::size_t node = 0; node < num_nodes(); ++node) {
        for (const NodeId target : out_edges(node))
            reverse_targets_[cursor[static_cast<std::size_t>(target)]++] =
                static_cast<NodeId>(node);
    }
}

std::vector<bool> ReachabilityGraph::backward_closure(const std::vector<bool>& targets) const {
    if (targets.size() != num_nodes())
        throw std::invalid_argument("ReachabilityGraph::backward_closure: size mismatch");

    // Round-structured worklist over the flat reverse CSR, seeded from the
    // target set (in stable-set use, Bad_b — itself seeded from sparse
    // support scans).  Rounds are BFS levels.
    build_reverse_csr();
    std::vector<bool> visited = targets;
    std::vector<NodeId> round;
    for (std::size_t node = 0; node < targets.size(); ++node) {
        if (targets[node]) round.push_back(static_cast<NodeId>(node));
    }
    std::vector<NodeId> next_round;
    while (!round.empty()) {
        next_round.clear();
        for (const NodeId node : round) {
            const auto i = static_cast<std::size_t>(node);
            const std::uint32_t begin = reverse_offsets_[i];
            const std::uint32_t end = reverse_offsets_[i + 1];
            for (std::uint32_t e = begin; e < end; ++e) {
                const NodeId prev = reverse_targets_[e];
                if (!visited[static_cast<std::size_t>(prev)]) {
                    visited[static_cast<std::size_t>(prev)] = true;
                    next_round.push_back(prev);
                }
            }
        }
        std::swap(round, next_round);
    }
    return visited;
}

}  // namespace ppsc
