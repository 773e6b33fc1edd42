#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "support/check.hpp"

namespace ppsc {

namespace {

/// The scheduler resolves transition nondeterminism uniformly.
TransitionId choose_rule(std::span<const TransitionId> rules, Rng& rng) {
    return rules.size() == 1 ? rules[0]
                             : rules[static_cast<std::size_t>(rng.below(rules.size()))];
}

/// Ordered weight of one non-silent pair at the current counts.  All
/// intermediates are bounded by n(n−1), so the caller's weight type is wide
/// enough for the arithmetic as well.
template <typename W>
W pair_weight(const Config& config, StateId a, StateId b) {
    const auto ca = static_cast<W>(config[a]);
    return a == b ? ca * (ca - 1) : 2 * ca * static_cast<W>(config[b]);
}

/// Below this many non-silent pairs the cumulative scan beats the Fenwick
/// tree (no flush, no mirror, near-sequential memory) — measured on the
/// E10 collector workloads; the break-even sits well under a thousand.
constexpr std::size_t kFenwickPairThreshold = 256;

/// Epoch mode's preconditions: the exact per-pair weights only Fenwick
/// selection keeps, a positive drift (NaN fails too), and
/// 1 ≤ min_firings ≤ max_firings.
void check_epoch_mode(PairSelect select, const EpochOptions& epoch) {
    if (select != PairSelect::fenwick)
        throw std::invalid_argument("StepMode::epoch needs PairSelect::fenwick");
    if (!(epoch.drift > 0.0)) throw std::invalid_argument("EpochOptions::drift must be positive");
    if (epoch.min_firings == 0 || epoch.min_firings > epoch.max_firings)
        throw std::invalid_argument("EpochOptions needs 1 <= min_firings <= max_firings");
}

/// A configuration over another state count would index past the
/// protocol's tables and the trap bitmaps.
void check_state_count(const Protocol& protocol, const Config& config) {
    PPSC_CHECK_MSG(config.num_states() == protocol.num_states(),
                   "configuration does not match the simulator's protocol");
}

/// The states of a uniform ordered pair of distinct agents: two distinct
/// agent ranks, mapped to states through the agent Fenwick tree
/// (O(log |Q|) instead of a prefix scan).
std::pair<StateId, StateId> sample_pair_in_agents(const FenwickTree& agents, Rng& rng) {
    const std::int64_t n = agents.total();
    PPSC_DASSERT(n >= 2);
    const auto r1 = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(n)));
    auto r2 = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(n - 1)));
    if (r2 >= r1) ++r2;
    return {static_cast<StateId>(agents.sample(r1)), static_cast<StateId>(agents.sample(r2))};
}

/// Lends a caller's configuration to a trajectory and hands it back when
/// the loan goes out of scope, whether the caller returns or throws.
struct ConfigLoan {
    Config& home;
    Simulator::Trajectory trajectory;
    ~ConfigLoan() { home = std::move(trajectory).config(); }
};

}  // namespace

Simulator::Simulator(const Protocol& protocol, PairSelect pair_select, TrapCompute trap_compute)
    : protocol_(protocol), pair_select_(pair_select) {
    if (pair_select_ == PairSelect::automatic) {
        // The heuristic is keyed on the PairId universe (#non-silent pairs),
        // not on |Q|² — so a protocol with |Q| ≥ 10⁵ but a handful of
        // rule-bearing pairs still gets the cheaper scan.
        pair_select_ = protocol_.nonsilent_pairs().size() >= kFenwickPairThreshold
                           ? PairSelect::fenwick
                           : PairSelect::scan;
    }
    compute_output_traps(trap_compute);
}

void Simulator::compute_output_traps(TrapCompute trap_compute) {
    // The fixpoint itself lives in sim/traps.cpp (worklist by default, with
    // the original pass structure as TrapCompute::reference — identical trap
    // sets).  The constructor additionally folds the two trap bitmaps into
    // the per-state outside mask the count-delta hot path reads.
    const auto start = std::chrono::steady_clock::now();
    for (int b = 0; b < 2; ++b) traps_[b] = compute_output_trap(protocol_, b, trap_compute);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    trap_setup_seconds_ = elapsed.count();

    const std::size_t n = protocol_.num_states();
    outside_mask_.assign(n, 0);
    for (std::size_t q = 0; q < n; ++q) {
        outside_mask_[q] = static_cast<std::uint8_t>((traps_[0][q] ? 0u : 1u) |
                                                     (traps_[1][q] ? 0u : 2u));
    }
}

bool Simulator::is_silent(const Config& config) const {
    check_state_count(protocol_, config);
    // Counts-based rescan over whichever candidate set is smaller: the
    // protocol's non-silent pairs (Θ(#pairs), independent of how the
    // population spreads) or the support-pair square.  Wide-support
    // configurations on |Q| ≥ 10⁵ protocols used to pay O(|support|²) hash
    // probes here; the flagship family has only Θ(|Q|) non-silent pairs.
    const std::vector<StateId> support = config.support();
    if (protocol_.nonsilent_pairs().size() < support.size() * support.size()) {
        for (const auto& [p, q] : protocol_.nonsilent_pairs()) {
            const bool enabled = p == q ? config[p] >= 2 : config[p] >= 1 && config[q] >= 1;
            if (enabled) return false;
        }
        return true;
    }
    for (std::size_t i = 0; i < support.size(); ++i) {
        for (std::size_t j = i; j < support.size(); ++j) {
            if (i == j && config[support[i]] < 2) continue;  // pair needs two agents
            if (!protocol_.pair_is_silent(support[i], support[j])) return false;
        }
    }
    return true;
}

bool Simulator::is_provably_stable(const Config& config) const {
    check_state_count(protocol_, config);
    for (int b = 0; b < 2; ++b) {
        bool inside = true;
        for (const StateId q : config.support()) {
            if (!traps_[b][static_cast<std::size_t>(q)]) {
                inside = false;
                break;
            }
        }
        if (inside) return true;
    }
    return is_silent(config);
}

template <typename W>
void Simulator::init_context(StepContextT<W>& ctx, const Config& config) const {
    check_state_count(protocol_, config);
    ctx.agents.assign(config.counts());
    ctx.active_weight = 0;
    const auto& counts = config.counts();
    if (pair_select_ == PairSelect::fenwick) {
        // Only a pair of two occupied states carries weight, so the weights
        // are set from the occupied states alone: each one's self pair, and
        // its cross pairs to occupied partners with a larger id (every cross
        // pair once).  A trial's set-up then costs O(|Q|) plus the occupied
        // states' degrees, not a read of every non-silent pair.
        ctx.pair_weights.assign(protocol_.nonsilent_pairs().size(), 0);
        const auto set = [&ctx](Protocol::PairId id, W weight) {
            ctx.pair_weights[id] = weight;
            ctx.active_weight += weight;
        };
        for (std::size_t q = 0; q < counts.size(); ++q) {
            if (counts[q] == 0) continue;
            const auto s = static_cast<StateId>(q);
            const auto c = static_cast<W>(counts[q]);
            if (const Protocol::PairId self = protocol_.self_pair(s); self != Protocol::kNoPair)
                set(self, c * (c - 1));
            for (const Protocol::PairNeighbor& nb : protocol_.pair_neighbors(s)) {
                const AgentCount partner = counts[static_cast<std::size_t>(nb.partner)];
                if (nb.partner > s && partner != 0) set(nb.pair, 2 * c * static_cast<W>(partner));
            }
        }
        ctx.pair_tree.assign(ctx.pair_weights);
    } else {
        // Scan mode recomputes pair weights from the counts on selection;
        // only the total W is kept incrementally, through the partner-sum
        // identity Σ_q c_q · partner_weight[q] + Σ_self c(c−1), which counts
        // every ordered non-silent pair exactly once.
        ctx.partner_weight.assign(counts.size(), 0);
        for (std::size_t q = 0; q < counts.size(); ++q) {
            AgentCount w = 0;
            for (const Protocol::PairNeighbor& nb : protocol_.pair_neighbors(static_cast<StateId>(q)))
                w += counts[static_cast<std::size_t>(nb.partner)];
            ctx.partner_weight[q] = w;
            ctx.active_weight += static_cast<W>(counts[q]) * static_cast<W>(w);
            if (protocol_.self_pair(static_cast<StateId>(q)) != Protocol::kNoPair)
                ctx.active_weight += static_cast<W>(counts[q]) * (static_cast<W>(counts[q]) - 1);
        }
    }
    // Per-trap outside-support counters: how many agents sit outside each
    // W_b right now (0 ⟺ the output is stably b).  Maintained incrementally
    // from here on by apply_count_delta.
    ctx.outside_trap[0] = 0;
    ctx.outside_trap[1] = 0;
    for (std::size_t q = 0; q < counts.size(); ++q) {
        if (counts[q] == 0) continue;
        const std::uint8_t outside = outside_mask_[q];
        if (outside & 1u) ctx.outside_trap[0] += counts[q];
        if (outside & 2u) ctx.outside_trap[1] += counts[q];
    }
    ctx.dirty.clear();
}

template <typename W>
void Simulator::flush_pair_tree(StepContextT<W>& ctx) const {
    if (ctx.dirty.empty()) return;
    // Past the threshold an O(n) rebuild beats replaying the queue (and the
    // queue stopped growing there, so this also bounds its memory).  Node
    // values are integer sums, so either way the tree ends up exactly the
    // one built from pair_weights.
    if (ctx.dirty.size() >= ctx.pair_weights.size() / 8 + 16) {
        ctx.pair_tree.assign(ctx.pair_weights);
    } else {
        for (const auto& [id, delta] : ctx.dirty) ctx.pair_tree.add(id, delta);
    }
    ctx.dirty.clear();
}

template <typename W>
void Simulator::apply_count_delta(StepContextT<W>& ctx, Config& config, StateId q,
                                  AgentCount delta) const {
    const AgentCount before = config[q];
    config.add(q, delta);
    ctx.agents.add(static_cast<std::size_t>(q), delta);
    // Outside-trap counters: one byte load resolves both traps.
    if (const std::uint8_t outside = outside_mask_[static_cast<std::size_t>(q)]; outside != 0) {
        if (outside & 1u) ctx.outside_trap[0] += delta;
        if (outside & 2u) ctx.outside_trap[1] += delta;
    }
    // Δ of c(c−1) for the self pair, 2·Δc·count(p) for each cross pair; the
    // protocol's delta table lists exactly the affected PairIds.
    if (pair_select_ == PairSelect::fenwick) {
        // Exact per-pair weights; the tree update is only queued — see
        // flush_pair_tree.  A zero delta (the partner state is empty)
        // leaves the weight, hence the flushed tree, as it is, so it is
        // neither written nor queued.
        const std::size_t queue_cap = ctx.pair_weights.size() / 8 + 16;
        const auto touch = [&ctx, queue_cap](Protocol::PairId id, W weight_delta) {
            if (weight_delta == 0) return;
            ctx.active_weight += weight_delta;
            ctx.pair_weights[id] += weight_delta;
            if (ctx.dirty.size() < queue_cap) ctx.dirty.emplace_back(id, weight_delta);
        };
        if (const Protocol::PairId self = protocol_.self_pair(q); self != Protocol::kNoPair)
            touch(self, static_cast<W>(delta) * (2 * static_cast<W>(before) + delta - 1));
        for (const Protocol::PairNeighbor& nb : protocol_.pair_neighbors(q))
            touch(nb.pair, 2 * static_cast<W>(delta) * static_cast<W>(config[nb.partner]));
    } else {
        // Scan mode: total W only, via the partner sums (one multiply per
        // count change + O(deg) array adds).
        if (protocol_.self_pair(q) != Protocol::kNoPair)
            ctx.active_weight +=
                static_cast<W>(delta) * (2 * static_cast<W>(before) + delta - 1);
        ctx.active_weight += 2 * static_cast<W>(delta) *
                             static_cast<W>(ctx.partner_weight[static_cast<std::size_t>(q)]);
        for (const Protocol::PairNeighbor& nb : protocol_.pair_neighbors(q))
            ctx.partner_weight[static_cast<std::size_t>(nb.partner)] += delta;
    }
}

template <typename W>
void Simulator::fire_in_context(StepContextT<W>& ctx, Config& config,
                                const Transition& t) const {
    // One count change per distinct state, net of the transition's four
    // ±1 moves, and none for a state it leaves as it was: the merge
    // t_i,t_i ↦ z,t_{i+1} costs three calls, a catalytic p,q ↦ p,r two.
    // The weight formulas are exact for any delta, so the result does not
    // depend on how the moves are grouped.
    const StateId states[4] = {t.pre1, t.pre2, t.post1, t.post2};
    AgentCount deltas[4] = {-1, -1, 1, 1};
    for (int i = 1; i < 4; ++i) {
        for (int j = 0; j < i; ++j) {
            if (states[j] == states[i]) {  // j is the state's first slot
                deltas[j] += deltas[i];
                deltas[i] = 0;
                break;
            }
        }
    }
    for (int i = 0; i < 4; ++i) {
        if (deltas[i] != 0) apply_count_delta(ctx, config, states[i], deltas[i]);
    }
}

template <typename W>
std::optional<TransitionId> Simulator::encounter(StepContextT<W>& ctx, Config& config,
                                                 Rng& rng) const {
    const auto [s1, s2] = sample_pair_in_agents(ctx.agents, rng);
    const Protocol::PairId pair = protocol_.pair_id(s1, s2);
    if (pair == Protocol::kNoPair) return std::nullopt;  // silent encounter

    const TransitionId chosen = choose_rule(protocol_.rules_for_pair_id(pair), rng);
    fire_in_context(ctx, config, protocol_.transitions()[static_cast<std::size_t>(chosen)]);
    return chosen;
}

template <typename W>
std::optional<TransitionId> Simulator::advance(StepContextT<W>& ctx, Config& config, Rng& rng,
                                               std::uint64_t budget,
                                               std::uint64_t* consumed) const {
    *consumed = 0;
    if (budget == 0) return std::nullopt;
    const W weight = ctx.active_weight;
    if (weight == 0) return std::nullopt;  // silent: nothing fires, ever

    const auto n = static_cast<W>(config.size());
    const W pairs = n * (n - 1);
    if (weight > pairs / 8) {
        // Dense regime: most encounters fire, per-encounter sampling is
        // cheaper than drawing the geometric skip.
        for (std::uint64_t silent = 0; silent < budget; ++silent) {
            if (const auto fired = encounter(ctx, config, rng)) {
                *consumed = silent + 1;
                return fired;
            }
        }
        *consumed = budget;
        return std::nullopt;
    }

    // Sparse regime: the number of consecutive silent encounters is
    // geometric with success probability p = weight/pairs — sample it in
    // one shot instead of executing the silent encounters one by one.
    const double p = static_cast<double>(weight) / static_cast<double>(pairs);
    const double u = 1.0 - rng.uniform();  // (0, 1]
    const double skip = std::floor(std::log(u) / std::log1p(-p));
    // Clamp before any integer conversion: beyond 2⁵³ the double no longer
    // holds an exact count (and a cast to uint64 could overflow outright),
    // so treat any such skip as "at least the whole budget is silent" —
    // `consumed` must never over-count past `budget`.
    if (!(skip < 0x1p53) || static_cast<std::uint64_t>(skip) >= budget) {
        *consumed = budget;
        return std::nullopt;
    }
    const auto silent_steps = static_cast<std::uint64_t>(skip);

    // The interacting state pair, conditioned on the encounter being
    // non-silent, is weight-proportional over the non-silent pairs.  Both
    // selection modes resolve the same rank draw over the same weights in
    // the same order, so they fire identical transitions per seed.
    // ppsc-lint: allow(R4) below128(b) < b by contract and weight is a W value, so the rank fits W
    const auto r = static_cast<W>(rng.below128(static_cast<unsigned __int128>(weight)));
    Protocol::PairId chosen_pair = Protocol::kNoPair;
    if (pair_select_ == PairSelect::fenwick) {
        flush_pair_tree(ctx);
        PPSC_DASSERT(ctx.pair_tree.total() == ctx.active_weight);
        chosen_pair = static_cast<Protocol::PairId>(ctx.pair_tree.sample(r));
    } else {
        // Reference O(#pairs) cumulative scan, recomputed from the counts —
        // independently cross-checks the incremental weight accounting.
        W rest = r;
        const auto nonsilent = protocol_.nonsilent_pairs();
        for (std::size_t i = 0; i < nonsilent.size(); ++i) {
            const W w = pair_weight<W>(config, nonsilent[i].first, nonsilent[i].second);
            if (rest < w) {
                chosen_pair = static_cast<Protocol::PairId>(i);
                break;
            }
            rest -= w;
        }
        PPSC_CHECK_MSG(chosen_pair != Protocol::kNoPair,
                       "active pair weight out of sync with counts");
    }
    // The PairId indexes the compact CSR directly — no pair lookup on the
    // fired-step path at all.
    const auto rules = protocol_.rules_for_pair_id(chosen_pair);
    PPSC_DASSERT(!rules.empty());
    const TransitionId chosen = choose_rule(rules, rng);
    fire_in_context(ctx, config, protocol_.transitions()[static_cast<std::size_t>(chosen)]);
    *consumed = silent_steps + 1;
    return chosen;
}

template <typename W>
bool Simulator::advance_epoch(StepContextT<W>& ctx, Config& config, Rng& rng,
                              std::uint64_t budget, const EpochOptions& epoch,
                              std::uint64_t* consumed, std::uint64_t* fired,
                              EpochStats& stats) const {
    PPSC_DASSERT(pair_select_ == PairSelect::fenwick);
    *consumed = 0;
    *fired = 0;
    const W weight = ctx.active_weight;
    if (weight == 0) return true;  // silent: nothing fires, ever
    if (budget == 0) return false;

    const std::size_t num_states = protocol_.num_states();
    if (ctx.epoch_rate.size() != num_states) {
        ctx.epoch_rate.assign(num_states, 0.0);
        ctx.epoch_cons.assign(num_states, 0);
        ctx.epoch_delta.assign(num_states, 0);
    }

    // Epoch detection = epoch sizing.  Freezing the weights is sound only
    // while the weight structure barely moves, and the structure is a
    // function of the counts — so cap the epoch length k such that every
    // state's EXPECTED consumption over k firings stays within
    // drift·count[q].  The per-firing consumption rate of state q is
    // (Σ_{active pairs touching q} mult·w_i)/W with mult = 2 on the self
    // pair: exactly the multinomial's expected draw pattern.  A global
    // min-count cap would be useless here (E11's merge frontier always has
    // a count-2 level, but its weight — hence its rate — is tiny); the
    // rate-relative cap keeps k at 10⁵-10⁶ through exactly those phases.
    // The rates are summed over the pair tree's weight-bearing slots only:
    // O(A·log #pairs) for A active pairs, and E11's merge frontier keeps A
    // at a handful.  The visit order (ascending PairId) fixes the floating-
    // point sums, hence k and the per-seed trajectory.
    flush_pair_tree(ctx);
    PPSC_DASSERT(ctx.pair_tree.total() == ctx.active_weight);
    const double weight_d = static_cast<double>(weight);
    const auto pairs = protocol_.nonsilent_pairs();
    auto& rate = ctx.epoch_rate;
    auto& rate_touched = ctx.epoch_rate_touched;
    rate_touched.clear();
    [[maybe_unused]] W visited = 0;
    ctx.pair_tree.for_each_nonzero([&](std::size_t i) {
        const W w = ctx.pair_weights[i];
        visited += w;
        const double wd = static_cast<double>(w);
        const auto [p, q] = pairs[i];
        const auto pi = static_cast<std::size_t>(p);
        const auto qi = static_cast<std::size_t>(q);
        if (p == q) {
            if (rate[pi] == 0.0) rate_touched.push_back(p);
            rate[pi] += 2.0 * wd;
        } else {
            if (rate[pi] == 0.0) rate_touched.push_back(p);
            rate[pi] += wd;
            if (rate[qi] == 0.0) rate_touched.push_back(q);
            rate[qi] += wd;
        }
    });
    PPSC_DASSERT(visited == ctx.active_weight);
    double k_cap = static_cast<double>(epoch.max_firings);
    for (const StateId s : rate_touched) {
        const auto si = static_cast<std::size_t>(s);
        const double cap = epoch.drift * static_cast<double>(config[s]) * weight_d / rate[si];
        if (cap < k_cap) k_cap = cap;
        rate[si] = 0.0;  // leave the scratch all-zero for the next epoch
    }
    // Keep the epoch's EXPECTED interaction total (fired + silent, k/p in
    // expectation) within half the remaining budget, so budget-capped calls
    // overshoot at most in the tail of the final epoch.
    const auto n = static_cast<W>(config.size());
    const W pairs_total = n * (n - 1);
    const double p_fire = weight_d / static_cast<double>(pairs_total);
    if (const double budget_cap = 0.5 * static_cast<double>(budget) * p_fire; budget_cap < k_cap)
        k_cap = budget_cap;

    auto k = static_cast<std::uint64_t>(k_cap);
    if (k < epoch.min_firings) return false;  // not profitable: per-step path

    // Draw the per-pair firing counts as one multinomial over the frozen
    // weights (conditional-binomial descent of the pair tree), resolve rule
    // nondeterminism by uniform binomial splits, and accumulate per-state
    // consumption and net deltas.  A draw whose realized consumption
    // exceeds some count (possible in the binomial tail — the cap above
    // only bounds the expectation) is rejected wholesale and retried at
    // half the length: every epoch actually applied is realizable as a
    // firing sequence, and counts can never go negative.
    const auto transitions = protocol_.transitions();
    auto& cons = ctx.epoch_cons;
    auto& delta = ctx.epoch_delta;
    auto& touched = ctx.epoch_touched;
    for (int attempt = 0;; ++attempt) {
        touched.clear();
        const auto bump = [&](StateId s, AgentCount used, AgentCount moved) {
            const auto si = static_cast<std::size_t>(s);
            // (cons, delta) == (0, 0) ⟺ untouched: cons only grows, and a
            // state first touched as a post-state has delta > 0 from then on
            // unless it also becomes a pre-state (then cons > 0).
            if (cons[si] == 0 && delta[si] == 0) touched.push_back(s);
            cons[si] += used;
            delta[si] += moved;
        };
        ctx.pair_tree.multinomial(k, rng, [&](std::size_t pair, std::uint64_t c) {
            const auto rules = protocol_.rules_for_pair_id(static_cast<Protocol::PairId>(pair));
            std::uint64_t remaining = c;
            const std::size_t num_rules = rules.size();
            for (std::size_t j = 0; j < num_rules; ++j) {
                // Uniform rule choice, aggregated: sequential binomial
                // splits give each rule Multinomial(c, 1/r) marginals.
                const std::uint64_t cj =
                    j + 1 == num_rules
                        ? remaining
                        : rng.binomial(remaining, 1.0 / static_cast<double>(num_rules - j));
                remaining -= cj;
                if (cj == 0) continue;
                const auto& t = transitions[static_cast<std::size_t>(rules[j])];
                const auto cnt = static_cast<AgentCount>(cj);
                bump(t.pre1, cnt, -cnt);
                bump(t.pre2, cnt, -cnt);
                bump(t.post1, 0, cnt);
                bump(t.post2, 0, cnt);
            }
        });
        bool feasible = true;
        for (const StateId s : touched) {
            const auto si = static_cast<std::size_t>(s);
            if (cons[si] > config[s]) {
                feasible = false;
                break;
            }
        }
        if (feasible) break;
        for (const StateId s : touched) {
            const auto si = static_cast<std::size_t>(s);
            cons[si] = 0;
            delta[si] = 0;
        }
        ++stats.rejected_draws;
        k /= 2;
        if (attempt >= 2 || k < epoch.min_firings) return false;
    }

    // Apply the aggregated deltas in one pass — one apply_count_delta per
    // touched state instead of four per firing.  Application order does not
    // matter: the incremental pair-weight formulas are exact for arbitrary
    // deltas, so the final weights equal the weights of the final counts.
    // Sorting keeps the Fenwick updates cache-local and the pass
    // deterministic.
    std::sort(touched.begin(), touched.end());
    for (const StateId s : touched) {
        const auto si = static_cast<std::size_t>(s);
        if (delta[si] != 0) apply_count_delta(ctx, config, s, delta[si]);
        cons[si] = 0;
        delta[si] = 0;
    }

    // The silent encounters interleaved among k firings at frozen weights:
    // NegativeBinomial(k, p) in one draw, the batched analogue of the
    // per-step geometric silent-skip.  Clamped to the budget (the k ≤
    // budget/2·p cap above makes clamping a tail event).
    std::uint64_t total = k;
    if (weight < pairs_total) {
        const std::uint64_t silent = rng.negative_binomial(k, p_fire);
        total = silent >= budget - k ? budget : k + silent;
    }
    ++stats.epochs;
    stats.epoch_fired += k;
    *consumed = total;
    *fired = k;
    return true;
}

void Simulator::merge_epoch_stats(const EpochStats& stats) const noexcept {
    if (stats.epochs == 0 && stats.fallback_fired == 0 && stats.rejected_draws == 0) return;
    epoch_epochs_.fetch_add(stats.epochs, std::memory_order_relaxed);
    epoch_fired_.fetch_add(stats.epoch_fired, std::memory_order_relaxed);
    epoch_fallback_fired_.fetch_add(stats.fallback_fired, std::memory_order_relaxed);
    epoch_rejected_.fetch_add(stats.rejected_draws, std::memory_order_relaxed);
}

std::uint64_t Simulator::run_batch(Config& config, Rng& rng, std::uint64_t max_interactions,
                                   bool stop_when_stable, const CheckpointHook* hook,
                                   std::uint64_t* fired_count, StepMode step_mode,
                                   const EpochOptions& epoch) const {
    ConfigLoan loan{config, Trajectory(*this, std::move(config))};
    const std::uint64_t done =
        loan.trajectory.run_batch(rng, max_interactions, stop_when_stable, hook, step_mode, epoch);
    if (fired_count != nullptr) *fired_count = loan.trajectory.fired();
    return done;
}

SimulationResult Simulator::run(Trajectory trajectory, Rng& rng,
                                const SimulationOptions& options) const {
    const AgentCount population = trajectory.config().size();
    if (population < 2)
        throw std::invalid_argument("Simulator::run: configurations need at least two agents");
    const std::uint64_t budget = options.max_interactions > trajectory.interactions()
                                     ? options.max_interactions - trajectory.interactions()
                                     : 0;
    trajectory.run_batch(rng, budget, true, &options.checkpoint, options.step_mode,
                         options.epoch);

    const std::uint64_t interactions = trajectory.interactions();
    SimulationResult result{Config(0), interactions, trajectory.fired(),
                            trajectory.provably_stable(), std::nullopt,
                            static_cast<double>(interactions) / static_cast<double>(population)};
    result.final_config = std::move(trajectory).config();
    result.output = protocol_.consensus_output(result.final_config);
    return result;
}

SimulationResult Simulator::run(Config config, Rng& rng,
                                const SimulationOptions& options) const {
    return run(Trajectory(*this, std::move(config)), rng, options);
}

SimulationResult Simulator::run_input(AgentCount input, Rng& rng,
                                      const SimulationOptions& options) const {
    return run(protocol_.initial_config(input), rng, options);
}

Simulator::Trajectory::Trajectory(const Simulator& simulator, Config config,
                                  const RunTotals& start)
    : simulator_(&simulator),
      config_(std::move(config)),
      totals_(start),
      last_tick_(start.interactions) {
    init();
}

void Simulator::Trajectory::restart(Config config) {
    config_ = std::move(config);
    init();
    ++totals_.restarts;
}

void Simulator::Trajectory::init() {
    // Pair weights fit int64 exactly when n(n−1) does: n ≤ 2³¹ agents.  A
    // restart at the same width keeps the context's buffers.
    const bool wide = config_.size() > (AgentCount{1} << 31);
    if (wide && context_.index() == 0) context_.emplace<1>();
    if (!wide && context_.index() == 1) context_.emplace<0>();
    std::visit([this](auto& ctx) { simulator_->init_context(ctx, config_); }, context_);
}

std::optional<TransitionId> Simulator::Trajectory::step(Rng& rng) {
    PPSC_CHECK_MSG(config_.size() >= 2, "simulation needs at least two agents");
    const auto fired = std::visit(
        [&](auto& ctx) { return simulator_->encounter(ctx, config_, rng); }, context_);
    ++totals_.interactions;
    if (fired) ++totals_.fired;
    return fired;
}

std::optional<TransitionId> Simulator::Trajectory::fired_step(Rng& rng, std::uint64_t budget,
                                                              std::uint64_t* consumed) {
    std::uint64_t local = 0;
    std::uint64_t* out = consumed != nullptr ? consumed : &local;
    // Populations of 0 or 1 agents weigh W == 0: advance reports them silent.
    const auto fired = std::visit(
        [&](auto& ctx) { return simulator_->advance(ctx, config_, rng, budget, out); },
        context_);
    totals_.interactions += *out;
    if (fired) ++totals_.fired;
    return fired;
}

std::pair<StateId, StateId> Simulator::Trajectory::sample_pair(Rng& rng) const {
    PPSC_CHECK_MSG(config_.size() >= 2, "sampling needs at least two agents");
    return std::visit([&](const auto& ctx) { return sample_pair_in_agents(ctx.agents, rng); },
                      context_);
}

std::uint64_t Simulator::Trajectory::run_batch(Rng& rng, std::uint64_t max_interactions,
                                               bool stop_when_stable, const CheckpointHook* hook,
                                               StepMode step_mode, const EpochOptions& epoch) {
    const Simulator& sim = *simulator_;
    const bool epoch_mode = step_mode == StepMode::epoch;
    if (epoch_mode) check_epoch_mode(sim.pair_select_, epoch);
    // Hook cadence: the callback runs at the first fired-step (or epoch)
    // boundary at or past the last tick plus `every`, never inside
    // advance()/advance_epoch() — checkpointing cannot split a silent-skip
    // or multinomial draw, so the rng stream (and hence the trajectory) is
    // the same with or without the hook.  The marks count the run totals,
    // so they carry across calls and restarts, and a trajectory resumed
    // from a tick's totals realigns on the same boundaries.
    const bool hooked = hook != nullptr && hook->active();
    EpochStats stats;
    std::uint64_t done = 0;
    std::visit(
        [&](auto& ctx) {
            // The O(1) stability probe (two counters + W).
            const auto settled = [&] { return stop_when_stable && ctx.provably_stable(); };
            while (done < max_interactions && !settled()) {
                const std::uint64_t budget = max_interactions - done;
                std::uint64_t consumed = 0;
                std::uint64_t fired_now = 0;
                const bool epoch_served =
                    epoch_mode && sim.advance_epoch(ctx, config_, rng, budget, epoch, &consumed,
                                                    &fired_now, stats);
                if (!epoch_served && sim.advance(ctx, config_, rng, budget, &consumed)) {
                    fired_now = 1;
                    if (epoch_mode) ++stats.fallback_fired;
                }
                done += consumed;
                totals_.interactions += consumed;
                // Nothing fired: the configuration is silent (consumed == 0),
                // or the budget ran out inside a run of silent encounters.
                if (fired_now == 0) break;
                totals_.fired += fired_now;
                // No tick on the step that settles the run: its final state
                // is the caller's result.
                if (hooked && totals_.interactions - last_tick_ >= hook->every && !settled()) {
                    last_tick_ = totals_.interactions;
                    if (!hook->callback({config_, rng.state(), totals_.interactions,
                                         totals_.fired, totals_.restarts}))
                        break;
                }
            }
        },
        context_);
    sim.merge_epoch_stats(stats);
    return done;
}

bool Simulator::Trajectory::silent() const noexcept {
    return std::visit([](const auto& ctx) { return ctx.active_weight == 0; }, context_);
}

bool Simulator::Trajectory::provably_stable() const noexcept {
    return std::visit([](const auto& ctx) { return ctx.provably_stable(); }, context_);
}

}  // namespace ppsc
