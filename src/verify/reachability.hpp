// Bounded-population reachability graphs.
//
// Transitions preserve the number of agents, so for a fixed population size
// N the configuration space is finite: C(N + |Q| - 1, |Q| - 1) multisets.
// This module materialises the reachability graph either from a given set
// of roots (forward exploration) or over the *entire* size-N slice (needed
// by stable-set computations, which quantify over all configurations).
//
// The graph is the semantic ground truth for everything else: fair
// executions of a finite system end up trapped in — and then visit all of —
// a bottom SCC, so "every fair execution from C stabilises to output b" is
// exactly "every bottom SCC reachable from C is a b-consensus SCC".
//
// Storage is one flat arena:
//   * node rows — |Q| counts per node, node-major in a single vector;
//   * an open-addressed table of uint32 node ids (linear probing, power-of-
//     two size, load ≤ 0.5) that interns rows.  Probes compare rows; no
//     hash is stored per node — the BFS rehashes the node it expands, and
//     a table growth rehashes every row.  Node ids are insertion order, so
//     the hash decides slot placement only — nothing observable depends on
//     it;
//   * adjacency as a CSR (offsets + one contiguous target array).  The BFS
//     processes node ids in increasing order, so each node's sorted,
//     deduplicated successor list is appended as soon as it is known.
// Successors are fired in place on one scratch row: apply the transition's
// Δ, probe the table, undo.  No Config is built per edge.
//
// Successor enumeration walks the protocol's non-silent-pair CSR
// (`pair_neighbors`/`self_pair` restricted to the configuration's support)
// instead of probing every support × support pair, and the backward closure
// runs a round-structured worklist over a flat reverse CSR.  The seed-era
// formulations of both live on as test oracles (tests/oracle/): the arena
// is asserted node-for-node identical to a naive map-based BFS in
// tests/reachability_arena_test.cpp, and the closure set-identical to a
// deque BFS in tests/analysis_sparse_test.cpp.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"

namespace ppsc {

using NodeId = std::int32_t;

struct ReachabilityOptions {
    /// Hard cap on the number of distinct configurations explored; larger
    /// graphs throw std::length_error (verification must never silently
    /// truncate — a wrong verdict is worse than no verdict).
    std::size_t max_nodes = 2'000'000;
};

class ReachabilityGraph {
public:
    /// An empty graph: an arena to reexplore() into.
    ReachabilityGraph() = default;

    /// Forward exploration from the given root configurations (all must
    /// have the same population size).
    static ReachabilityGraph explore(const Protocol& protocol, std::span<const Config> roots,
                                     const ReachabilityOptions& options = {});

    /// The full size-N slice: every configuration of `population` agents.
    static ReachabilityGraph full_slice(const Protocol& protocol, AgentCount population,
                                        const ReachabilityOptions& options = {});

    /// explore() in place: afterwards this graph is node-for-node the graph
    /// explore(protocol, roots, options) returns, but the arena keeps its
    /// buffers, so a caller exploring many inputs (or many protocols) only
    /// allocates when a graph outgrows every earlier one.  Any graph may be
    /// re-explored, including one whose last exploration threw (a budget
    /// abort leaves an unusable partial graph, never a corrupt arena).
    /// Rows and successor spans handed out earlier are invalidated.
    void reexplore(const Protocol& protocol, std::span<const Config> roots,
                   const ReachabilityOptions& options = {});

    /// Sizes the arena once for every later graph of at most `nodes` nodes
    /// and `edges` edges over `width` states: rows, slot table, CSR and the
    /// compute_sccs scratch get that capacity now, so no
    /// reexplore() or compute_sccs() within the bounds reallocates.  Only
    /// capacity changes — the graph held is untouched — and a larger graph
    /// later still works, growing the buffers as usual.
    void reserve(std::size_t width, std::size_t nodes, std::size_t edges);

    /// The explored protocol (the graph keeps a pointer: the protocol must
    /// outlive every use of the graph).
    const Protocol& protocol() const noexcept { return *protocol_; }
    std::size_t num_nodes() const noexcept { return num_nodes_; }
    std::size_t num_edges() const noexcept { return targets_.size(); }

    /// The configuration of a node, materialised.  Throws std::out_of_range
    /// on a bad id.  Hot loops read row() instead.
    Config config(NodeId node) const;

    /// The count row of a node: row(node)[q] agents in state q, |Q| entries.
    std::span<const AgentCount> row(NodeId node) const {
        PPSC_DASSERT(node >= 0 && static_cast<std::size_t>(node) < num_nodes());
        return {rows_.data() + static_cast<std::size_t>(node) * width_, width_};
    }

    /// Node of a configuration, if it was explored.
    std::optional<NodeId> find(const Config& config) const;

    /// Outgoing successor nodes (sorted, deduplicated; silent self-loops
    /// omitted).  Throws std::out_of_range on a bad id.
    std::span<const NodeId> successors(NodeId node) const;

    /// Nodes of the roots passed to explore() (empty for full_slice).
    std::span<const NodeId> roots() const noexcept { return roots_; }

    /// Strongly connected components in reverse topological order
    /// (component 0 has no successors outside itself ⇒ components are
    /// numbered so that edges go from higher to lower component ids).
    struct SccResult {
        std::vector<std::int32_t> component_of;  // node -> component id
        std::int32_t num_components = 0;
        std::vector<bool> is_bottom;  // component id -> bottom SCC?
    };
    /// Pearce's one-word variant of Tarjan's algorithm: the DFS index and
    /// low link share one word per node, kept in the result's
    /// component_of, and components complete in Tarjan's order.  The DFS
    /// stacks live in the arena (like the reverse CSR), so one graph must
    /// not run this on two threads at once.
    SccResult compute_sccs() const;

    /// All nodes reachable from `start` (forward BFS over the graph).
    std::vector<bool> forward_closure(NodeId start) const;

    /// All nodes that can reach some node in `targets`: a round-structured
    /// worklist over a lazily built flat reverse CSR (offsets + one
    /// contiguous predecessor array).
    std::vector<bool> backward_closure(const std::vector<bool>& targets) const;

private:
    static constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();

    void reset(const Protocol& protocol);
    /// Σ_q counts[q]·key(q) mod 2⁶⁴: linear, so firing a transition moves
    /// the hash by four key terms.  Slots are placed by mix64 of it.
    std::uint64_t hash_row(std::span<const AgentCount> counts) const noexcept;
    /// The slot holding the node whose row is `key` (hashing to `hash`), or
    /// the empty slot where it would be inserted.  Occupied slots are
    /// matched by comparing rows.
    std::size_t probe(std::span<const AgentCount> key, std::uint64_t hash) const noexcept;
    /// Interns scratch_ (whose hash_row is `hash`): its existing node, or a
    /// new node appended to the arena (throws std::length_error past the
    /// node budget, before the table is touched).
    NodeId intern(std::uint64_t hash, const ReachabilityOptions& options);
    void grow_slots();
    void close(const ReachabilityOptions& options);
    std::span<const NodeId> out_edges(std::size_t node) const noexcept {
        return {targets_.data() + offsets_[node], targets_.data() + offsets_[node + 1]};
    }
    void build_reverse_csr() const;

    const Protocol* protocol_ = nullptr;
    std::size_t width_ = 0;                // |Q|: the length of every row
    std::size_t num_nodes_ = 0;
    std::vector<AgentCount> rows_;         // node-major, width_ counts per node
    std::vector<std::uint64_t> state_keys_;  // odd per-state hash keys (grow only)
    std::vector<std::uint32_t> slots_;     // open-addressed node ids / kEmptySlot
    std::vector<AgentCount> scratch_;      // the row being fired or interned
    std::vector<std::uint32_t> offsets_;   // CSR: node's successors are
    std::vector<NodeId> targets_;          //   targets_[offsets_[n] .. offsets_[n+1])
    std::vector<NodeId> out_;              // one node's successors before sorting
    std::vector<NodeId> roots_;

    // Lazily built reverse edges as a flat CSR (Θ(nodes + edges) in two
    // contiguous arrays, no per-node allocation).
    mutable std::vector<std::uint32_t> reverse_offsets_;
    mutable std::vector<NodeId> reverse_targets_;

    // compute_sccs scratch, kept across calls: the stack of visited nodes
    // that are not component roots, and the explicit DFS call stack.
    struct SccFrame {
        NodeId node;
        std::uint32_t edge;  // next CSR slot of node's successor list
        bool root;           // no successor has lowered node's link yet
    };
    mutable std::vector<NodeId> scc_stack_;
    mutable std::vector<SccFrame> scc_frames_;
};

}  // namespace ppsc
