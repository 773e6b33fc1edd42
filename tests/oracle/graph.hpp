// Test oracles for the reachability layer: a std::map BFS that fires
// through Protocol::fire, the two-word iterative Tarjan that compute_sccs
// ran before Pearce's one-word variant, a deque-BFS backward closure (and
// the stable sets built on it), and the per-component rescan selection of
// the pumping pipeline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "verify/reachability.hpp"

namespace ppsc::oracle {

struct NaiveGraph {
    std::vector<std::vector<AgentCount>> rows;
    std::vector<std::vector<NodeId>> successors;
    std::vector<NodeId> roots;
};

/// The rules enabled at `current`, in ReachabilityGraph's enumeration
/// order (per support state q, its self pair, then its pair_neighbors with
/// a larger occupied partner), so explore() node ids must agree.
inline std::vector<TransitionId> rules_in_arena_order(const Protocol& p, const Config& current) {
    std::vector<TransitionId> rules;
    const auto add = [&](std::span<const TransitionId> ids) {
        rules.insert(rules.end(), ids.begin(), ids.end());
    };
    for (const StateId q : current.support()) {
        if (current[q] >= 2 && p.self_pair(q) != Protocol::kNoPair)
            add(p.rules_for_pair_id(p.self_pair(q)));
        for (const Protocol::PairNeighbor& n : p.pair_neighbors(q))
            if (n.partner > q && current[n.partner] > 0) add(p.rules_for_pair_id(n.pair));
    }
    return rules;
}

/// The rules enabled at `current`, found by probing every support × support
/// pair through the pair lookup: independent of the pair CSR, for graphs
/// whose node ids do not depend on enumeration order (full_slice).
inline std::vector<TransitionId> rules_over_support_pairs(const Protocol& p,
                                                          const Config& current) {
    std::vector<TransitionId> rules;
    const std::vector<StateId> support = current.support();
    for (std::size_t i = 0; i < support.size(); ++i) {
        for (std::size_t j = i; j < support.size(); ++j) {
            if (j == i && current[support[i]] < 2) continue;
            const auto ids = p.rules_for_pair(support[i], support[j]);
            rules.insert(rules.end(), ids.begin(), ids.end());
        }
    }
    return rules;
}

/// Interns `seeds` in order, then closes the graph by BFS, firing the rules
/// `enabled_rules(p, config)` returns at each node.
template <typename EnabledRules>
NaiveGraph naive_graph(const Protocol& p, const std::vector<Config>& seeds, bool seeds_are_roots,
                       EnabledRules enabled_rules) {
    NaiveGraph g;
    std::map<std::vector<AgentCount>, NodeId> index;
    const auto intern = [&](const Config& c) {
        const auto [it, inserted] = index.try_emplace(c.counts(), static_cast<NodeId>(g.rows.size()));
        if (inserted) g.rows.push_back(c.counts());
        return it->second;
    };
    for (const Config& seed : seeds) {
        const NodeId id = intern(seed);
        if (seeds_are_roots) g.roots.push_back(id);
    }
    for (std::size_t node = 0; node < g.rows.size(); ++node) {
        const Config current = Config::from_counts(g.rows[node]);
        std::vector<NodeId> out;
        for (const TransitionId rule : enabled_rules(p, current)) {
            const NodeId target =
                intern(p.fire(current, p.transitions()[static_cast<std::size_t>(rule)]));
            if (target != static_cast<NodeId>(node)) out.push_back(target);
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        g.successors.push_back(std::move(out));
    }
    return g;
}

/// Every configuration of `population` agents, in full_slice's order (the
/// count of state 0 descending, then recursively).
inline std::vector<Config> slice_configs(std::size_t num_states, AgentCount population) {
    std::vector<Config> configs;
    std::vector<AgentCount> counts(num_states, 0);
    const auto recurse = [&](const auto& self, std::size_t state, AgentCount remaining) -> void {
        if (state + 1 == num_states) {
            counts[state] = remaining;
            configs.push_back(Config::from_counts(counts));
            return;
        }
        for (AgentCount c = remaining; c >= 0; --c) {
            counts[state] = c;
            self(self, state + 1, remaining - c);
        }
    };
    recurse(recurse, 0, population);
    return configs;
}

/// Iterative Tarjan with an index and a low link per node: components are
/// numbered in completion order, and a component is bottom when no edge
/// leaves it.
inline ReachabilityGraph::SccResult tarjan_sccs(const ReachabilityGraph& graph) {
    const std::size_t n = graph.num_nodes();
    ReachabilityGraph::SccResult result;
    result.component_of.assign(n, -1);
    // A visited node is on the Tarjan stack exactly until its component is
    // assigned, so component_of < 0 doubles as the on-stack flag.
    constexpr std::int32_t kUnvisited = -1;
    std::vector<std::int32_t> index(n, kUnvisited);
    std::vector<std::int32_t> lowlink(n, 0);
    std::vector<NodeId> stack;
    struct Frame {
        NodeId node;
        std::size_t edge;  // next position in node's successor list
    };
    std::vector<Frame> call_stack;
    std::int32_t next_index = 0;
    const auto visit = [&](std::size_t v) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(static_cast<NodeId>(v));
        call_stack.push_back({static_cast<NodeId>(v), 0});
    };
    for (std::size_t start = 0; start < n; ++start) {
        if (index[start] != kUnvisited) continue;
        visit(start);
        while (!call_stack.empty()) {
            Frame& frame = call_stack.back();
            const auto node = static_cast<std::size_t>(frame.node);
            const auto out = graph.successors(frame.node);
            bool descended = false;
            while (frame.edge < out.size()) {
                const auto next = static_cast<std::size_t>(out[frame.edge++]);
                if (index[next] == kUnvisited) {
                    visit(next);  // invalidates `frame`
                    descended = true;
                    break;
                }
                if (result.component_of[next] < 0)
                    lowlink[node] = std::min(lowlink[node], index[next]);
            }
            if (descended) continue;
            if (lowlink[node] == index[node]) {
                while (true) {
                    const NodeId member = stack.back();
                    stack.pop_back();
                    result.component_of[static_cast<std::size_t>(member)] = result.num_components;
                    if (static_cast<std::size_t>(member) == node) break;
                }
                ++result.num_components;
            }
            call_stack.pop_back();
            if (!call_stack.empty()) {
                const auto parent = static_cast<std::size_t>(call_stack.back().node);
                lowlink[parent] = std::min(lowlink[parent], lowlink[node]);
            }
        }
    }
    result.is_bottom.assign(static_cast<std::size_t>(result.num_components), true);
    for (std::size_t node = 0; node < n; ++node) {
        for (const NodeId target : graph.successors(static_cast<NodeId>(node))) {
            const std::int32_t from = result.component_of[node];
            if (from != result.component_of[static_cast<std::size_t>(target)])
                result.is_bottom[static_cast<std::size_t>(from)] = false;
        }
    }
    return result;
}

/// All nodes of `graph` that can reach some node in `targets`.
inline std::vector<bool> backward_closure(const ReachabilityGraph& graph,
                                          const std::vector<bool>& targets) {
    std::vector<std::vector<NodeId>> reverse(graph.num_nodes());
    for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
        for (const NodeId target : graph.successors(static_cast<NodeId>(node)))
            reverse[static_cast<std::size_t>(target)].push_back(static_cast<NodeId>(node));
    }
    std::vector<bool> visited = targets;
    std::deque<NodeId> queue;
    for (std::size_t node = 0; node < targets.size(); ++node) {
        if (targets[node]) queue.push_back(static_cast<NodeId>(node));
    }
    while (!queue.empty()) {
        const NodeId node = queue.front();
        queue.pop_front();
        for (const NodeId prev : reverse[static_cast<std::size_t>(node)]) {
            if (!visited[static_cast<std::size_t>(prev)]) {
                visited[static_cast<std::size_t>(prev)] = true;
                queue.push_back(prev);
            }
        }
    }
    return visited;
}

/// The b-stable configurations of the size-`population` slice, in node
/// order: the nodes that cannot reach Bad_b, the configurations with an
/// agent whose output is not b.
inline std::vector<Config> stable_configs(const Protocol& protocol, AgentCount population,
                                          int b) {
    const ReachabilityGraph slice = ReachabilityGraph::full_slice(protocol, population);
    std::vector<bool> bad(slice.num_nodes(), false);
    for (std::size_t node = 0; node < slice.num_nodes(); ++node)
        bad[node] = protocol.consensus_output(slice.row(static_cast<NodeId>(node))) != b;
    const std::vector<bool> can_reach_bad = backward_closure(slice, bad);
    std::vector<Config> stable;
    for (std::size_t node = 0; node < slice.num_nodes(); ++node)
        if (!can_reach_bad[node]) stable.push_back(slice.config(static_cast<NodeId>(node)));
    return stable;
}

/// bounds::stable_configuration_for_input by rescanning the nodes once per
/// component: the lexicographically least configuration of the least-index
/// bottom SCC whose members are all b-consensus for one shared b.
inline std::optional<Config> stable_configuration_for_input(const Protocol& protocol,
                                                            AgentCount input) {
    const Config roots[] = {protocol.initial_config(input)};
    const ReachabilityGraph graph = ReachabilityGraph::explore(protocol, roots);
    const auto scc = graph.compute_sccs();
    const auto consensus = [&](std::int32_t component) {
        std::optional<int> verdict;
        for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
            if (scc.component_of[node] != component) continue;
            const auto value = protocol.consensus_output(graph.row(static_cast<NodeId>(node)));
            if (!value || (verdict && *verdict != *value)) return false;
            verdict = value;
        }
        return verdict.has_value();
    };
    for (std::int32_t component = 0; component < scc.num_components; ++component) {
        if (!scc.is_bottom[static_cast<std::size_t>(component)] || !consensus(component)) continue;
        std::optional<Config> best;
        for (std::size_t node = 0; node < graph.num_nodes(); ++node) {
            if (scc.component_of[node] != component) continue;
            const Config config = graph.config(static_cast<NodeId>(node));
            if (!best || config.counts() < best->counts()) best = config;
        }
        return best;
    }
    return std::nullopt;
}

}  // namespace ppsc::oracle
