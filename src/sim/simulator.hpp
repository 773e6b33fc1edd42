// Random-scheduler simulation of population protocols.
//
// The standard stochastic model (Section 1 of the paper): at each step a
// pair of distinct agents is chosen uniformly at random and interacts.
// Parallel time = interactions / number of agents.
//
// Engine.  The hot path is built around four ideas:
//
//   1. Fenwick agent sampling: agent ranks map to states through a Fenwick
//      tree over the count vector (O(log |Q|) per sample, O(log |Q|) to keep
//      in sync when a transition fires) instead of an O(|Q|) prefix scan.
//   2. Incremental silence detection: the engine maintains W = the number
//      of *ordered agent pairs* whose state pair enables a non-silent
//      transition.  W = 0 ⟺ the configuration is silent, so silence is
//      detected exactly and in O(1).  The weight arithmetic is templated on
//      the population scale: int64 while n(n−1) fits (n ≤ 2³¹ agents),
//      128-bit beyond — populations past 2³¹ take the same fast path as
//      small ones instead of falling back to per-encounter stepping.
//   3. Rejection-free batching: when W is small relative to the n(n−1)
//      ordered pairs, the number of consecutive silent encounters is
//      geometrically distributed — run()/run_batch() sample it in one shot
//      and advance the interaction counter without executing the silent
//      encounters one by one.  The resulting trajectory distribution is
//      exactly that of the naive per-encounter chain.
//   4. Pair-weight Fenwick sampling: the interacting pair of a fired step
//      (weight-proportional over the non-silent pairs) is drawn from a
//      second Fenwick tree over the ordered pair weights, fed by the same
//      delta machinery that maintains W and flushed lazily right before a
//      selection — O(log #pairs) per fired interaction instead of the
//      O(#pairs) scan the engine used before, which dominated protocols
//      with many non-silent pairs (the double-exponential threshold
//      workload has millions), while dense-regime stepping keeps its
//      O(deg) cost.  Protocols with only a handful of non-silent pairs
//      stay on the (there faster) scan automatically.  Both trees store
//      nodes only up to their last weight-bearing slot's power-of-two
//      ceiling (support/fenwick.hpp), so each walk costs O(log) of the
//      occupied prefix, not of |Q| or #pairs: on the E11 flagship below η,
//      ≈ 5 levels instead of 17–19.  Pair touches with a zero weight
//      delta (an empty partner state) are skipped outright.
//   5. Epoch-batched stepping (StepMode::epoch, opt-in): when the
//      pair-weight structure drifts slowly — the dense merge phases of the
//      E11 double-exponential workloads — k fired steps are drawn as ONE
//      multinomial over the pair-weight Fenwick (conditional-binomial
//      descent) and applied as aggregated per-state count deltas in one
//      pass, with the run of silent encounters folded in as a single
//      negative-binomial draw.  Unlike ideas 1-4, which are trajectory-
//      identical per seed, epoch batching freezes the weights across the
//      epoch and is therefore *distribution*-level: the epoch length is
//      capped so no state's expected consumption exceeds a small fraction
//      of its count (EpochOptions::drift), infeasible draws are rejected
//      and retried at half the length, and the engine falls back to the
//      exact per-step reference path whenever an epoch is not profitable.
//      Sizing sums the per-state rates over the pair tree's weight-bearing
//      slots only, so a whole epoch costs O(A·log #pairs) for A active pairs.
//      Equivalence is established statistically (chi-squared on firing
//      counts, two-sample tests on convergence times — see
//      tests/support_stats/ and docs/ARCHITECTURE.md).
//
// All encounter resolution goes through Protocol::pair_id — PairIds over
// the non-silent pairs only, looked up in a hash table of Θ(#non-silent
// pairs) entries — so no per-step structure grows with |Q|², which is what
// lets the engine run rule-sparse protocols with |Q| ≥ 10⁵.
//
// Convergence detection.  True stabilisation ("no reachable configuration
// changes the output") is undecidable to detect locally, so the simulator
// uses two *sound* sufficient conditions:
//
//   1. Silent configurations: every enabled pair is silent — no transition
//      can ever fire again, so the configuration is trivially stable.
//   2. Output traps: a set W_b ⊆ O⁻¹(b) of states closed under interaction
//      (every transition whose both pre-states lie in W_b has both
//      post-states in W_b).  If all agents are inside W_b, every reachable
//      configuration stays inside, so the output is stably b.  We compute a
//      greatest-fixpoint under-approximation of the largest such trap
//      (sim/traps.hpp: a worklist fixpoint over the protocol's
//      transition-incidence index, O(|T| + evictions · deg) instead of the
//      O(passes · |T|) reference pass structure it is asserted identical
//      to — trap setup at |Q| ≥ 10⁵ in milliseconds instead of minutes).
//
// Both checks are sound: `converged == true` really means the execution has
// stabilised.  They are not complete; runs that stabilise in a form the
// checks cannot see terminate at `max_interactions` with converged == false.
//
// Stability probes are O(1) along a trajectory: every step context carries
// per-trap outside-support counters (agents sitting outside W_b) maintained
// by the same count-delta machinery that maintains the silence weight W, so
// is_provably_stable on the configuration the cached context owns — and the
// early-stop checks inside run()/run_batch() — read two counters instead of
// rescanning the support (previously O(|support|) + an O(|support|²)
// silence re-scan per probe).
//
// Thread safety: run()/run_input() are const and keep all mutable state on
// the stack, so one Simulator may serve concurrent runs (this is what the
// parallel convergence sweeps do).  step()/run_batch()/fired_step()/
// sample_pair() share a per-simulator sampler cache and must not be called
// concurrently — and is_silent()/is_provably_stable() *read* that cache
// (the O(1) probe path), so they must not race with the cache-writing calls
// either; concurrently with run()/run_input() they are fine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "sim/traps.hpp"
#include "support/fenwick.hpp"
#include "support/rng.hpp"

namespace ppsc {

/// One checkpointable moment of a trajectory, handed to CheckpointHook
/// callbacks.  Everything a snapshot needs (sim/checkpoint.hpp): the
/// current counts, the full Rng state, and the counters accumulated within
/// the hook-bearing call (the caller adds its own resumed-from base).
struct CheckpointTick {
    const Config& config;
    std::uint64_t rng_state = 0;
    /// Interactions executed in this call — run() adds the resumed-from base
    /// (SimulationOptions::initial_interactions), run_batch callers add
    /// their own.
    std::uint64_t interactions = 0;
    /// Non-silent interactions, same accounting as `interactions`
    /// (run() adds SimulationOptions::initial_fired).
    std::uint64_t fired = 0;
};

/// Checkpoint-every-N-interactions hook for run()/run_batch().  The
/// callback fires at the first *fired-step boundary* at or past each
/// cadence mark — never mid-advance — so it neither consumes randomness
/// nor cuts a geometric silent-skip short: trajectories are byte-identical
/// per seed with the hook present, absent, or resumed from any snapshot
/// the hook wrote.  Returning false stops the run after the current step
/// (graceful shutdown); the interactions executed so far are reported as
/// usual.
struct CheckpointHook {
    /// Minimum interactions between callbacks (0 disables the hook).
    std::uint64_t every = 0;
    std::function<bool(const CheckpointTick&)> callback;

    bool active() const noexcept { return every != 0 && callback != nullptr; }
};

/// How run()/run_batch() advance the chain between stability checks.
/// `per_step` is the exact reference: one weight-proportional draw per
/// fired interaction (with the geometric silent-skip), trajectory-identical
/// per seed across all other engine options.  `epoch` batches fired steps
/// into multinomial epochs whenever the weight structure is drifting slowly
/// enough (see EpochOptions) and falls back to the per-step path otherwise —
/// distribution-identical rather than trajectory-identical, and validated by
/// the statistical-equivalence suite.  `epoch` needs Fenwick pair selection.
enum class StepMode { per_step, epoch };

/// Tuning knobs of the epoch-batched path.  An epoch of k fired steps is
/// taken only when k — capped so that no state's *expected* consumption
/// across the epoch exceeds `drift` of its current count, and so the
/// expected interactions stay within half the remaining budget — reaches
/// `min_firings`; otherwise the engine serves the step from the exact
/// per-step reference path.  Draws whose realized consumption exceeds some
/// count (possible in the binomial tail) are rejected wholesale and retried
/// at half the length, so counts never go negative and every epoch applied
/// is a realizable firing sequence.  Preconditions, checked when an
/// epoch-mode run starts (std::invalid_argument otherwise): drift > 0 and
/// 1 ≤ min_firings ≤ max_firings.
struct EpochOptions {
    /// Max expected fraction of any state's count consumed per epoch.
    double drift = 0.125;
    /// Floor below which an epoch is not worth its fixed costs.
    std::uint64_t min_firings = 32;
    /// Hard per-epoch cap — bounds the scratch work between stability and
    /// checkpoint probes (which run at epoch boundaries only).
    std::uint64_t max_firings = std::uint64_t{1} << 22;
};

/// Counters describing how the epoch path engaged (per Simulator,
/// accumulated across calls; see Simulator::epoch_stats).  Tests use them
/// to assert the multinomial path actually ran; benchmarks to report the
/// epoch/fallback mix.
struct EpochStats {
    std::uint64_t epochs = 0;          ///< multinomial epochs applied
    std::uint64_t epoch_fired = 0;     ///< fired interactions drawn in epochs
    std::uint64_t fallback_fired = 0;  ///< fired on the per-step path in epoch mode
    std::uint64_t rejected_draws = 0;  ///< infeasible epoch draws retried/abandoned
};

struct SimulationOptions {
    /// Hard cap on interactions before giving up.
    std::uint64_t max_interactions = 50'000'000;
    /// Resume support: interactions already executed before this call (a
    /// restored checkpoint).  Counted against max_interactions and included
    /// in the reported totals, so resuming a run at its checkpoint replays
    /// the uninterrupted run's tail byte-identically.
    std::uint64_t initial_interactions = 0;
    /// Resume support for the fired counter: non-silent interactions
    /// executed before this call.  Included in SimulationResult::fired and
    /// in checkpoint ticks, so snapshots written by a resumed run carry the
    /// same totals the uninterrupted run would have written.
    std::uint64_t initial_fired = 0;
    /// Periodic checkpointing along the run (tick interactions are absolute,
    /// i.e. include initial_interactions; tick fired counts include
    /// initial_fired).
    CheckpointHook checkpoint;
    /// Exact per-step reference vs. epoch-batched stepping (see StepMode).
    /// Epoch mode needs a Fenwick-selecting simulator: under scan selection
    /// (`PairSelect::scan`, or `automatic` resolved to it) run() throws
    /// std::invalid_argument.
    StepMode step_mode = StepMode::per_step;
    /// Epoch tuning, read (and validated) only when step_mode == StepMode::epoch.
    EpochOptions epoch;
};

struct SimulationResult {
    Config final_config;
    std::uint64_t interactions = 0;   ///< total interactions executed
    std::uint64_t fired = 0;          ///< non-silent interactions executed
    bool converged = false;           ///< a sound stability condition fired
    std::optional<int> output;        ///< consensus output of the final config
    double parallel_time = 0.0;       ///< interactions / population
};

/// How the interacting pair of a fired step is selected.  `fenwick` draws
/// from the pair-weight Fenwick tree (O(log #pairs)); `scan` is the
/// reference O(#pairs) cumulative scan, kept for equivalence tests and
/// benchmarks — and genuinely faster on protocols with only a handful of
/// non-silent pairs, which is what `automatic` (the default) picks it for.
/// All modes consume the same random draw and select over the same weights
/// in the same order, so trajectories are identical per seed.
enum class PairSelect { automatic, fenwick, scan };

/// Reusable simulator for one protocol (precomputes output traps; the
/// non-silent pair structure comes from the protocol's CSR tables).
class Simulator {
public:
    explicit Simulator(const Protocol& protocol,
                       PairSelect pair_select = PairSelect::automatic,
                       TrapCompute trap_compute = TrapCompute::worklist);

    /// The selection mode actually in use (`automatic` resolved).
    PairSelect pair_selection() const noexcept { return pair_select_; }

    /// The trap-computation algorithm this simulator was seeded with (both
    /// produce identical traps; see sim/traps.hpp).
    TrapCompute trap_compute() const noexcept { return trap_compute_; }

    /// Wall-clock seconds the constructor spent computing the output traps
    /// — the quantity the worklist fixpoint collapses at |Q| ≥ 10⁵
    /// (surfaced as the E11 `trap_setup_seconds` column).
    double trap_setup_seconds() const noexcept { return trap_setup_seconds_; }

    /// Runs from `config` until a sound stability condition holds or the
    /// interaction budget is exhausted.  Thread-safe.
    SimulationResult run(Config config, Rng& rng, const SimulationOptions& options = {}) const;

    /// Runs from IC(input) (single-input protocols).  Thread-safe.
    SimulationResult run_input(AgentCount input, Rng& rng,
                               const SimulationOptions& options = {}) const;

    /// Executes exactly one interaction step on `config`; returns the
    /// transition fired (nullopt for a silent encounter).  Not thread-safe
    /// (uses the sampler cache).
    std::optional<TransitionId> step(Config& config, Rng& rng) const;

    /// Executes up to `max_interactions` interactions on `config` (silent
    /// encounters are counted and, when profitable, skipped in bulk without
    /// changing the trajectory distribution).  Returns the number executed —
    /// never more than `max_interactions`; less only when the configuration
    /// became silent (no transition can ever fire again) or, with
    /// `stop_when_stable`, provably stable (is_provably_stable — an O(1)
    /// counter read per fired interaction; the trajectory up to the stop is
    /// unchanged) or a checkpoint callback requested a stop.  Populations of
    /// 0 or 1 agents have no pairs and return 0 cleanly.  `hook`, when
    /// active, is invoked at fired-step boundaries every ≥ hook->every
    /// interactions (see CheckpointHook — the trajectory is unchanged by
    /// it); `fired_count`, when non-null, receives the number of non-silent
    /// interactions executed by this call — per call, not accumulated across
    /// calls: restart loops must sum the out-param themselves.  With
    /// `stop_when_stable` the hook follows run()'s rule: no tick on the
    /// step that makes the configuration provably stable, so run() and
    /// run_batch(…, true, hook) tick identically from the same seed.  With
    /// `step_mode == StepMode::epoch` fired steps are served in multinomial
    /// epochs where profitable — hooks and stability probes then run at
    /// epoch boundaries; the interaction/fired accounting is unchanged.
    /// Epoch mode throws std::invalid_argument unless the simulator selects
    /// pairs by Fenwick tree and `epoch` satisfies EpochOptions'
    /// preconditions.  Not thread-safe.
    std::uint64_t run_batch(Config& config, Rng& rng, std::uint64_t max_interactions,
                            bool stop_when_stable = false,
                            const CheckpointHook* hook = nullptr,
                            std::uint64_t* fired_count = nullptr,
                            StepMode step_mode = StepMode::per_step,
                            const EpochOptions& epoch = {}) const;

    /// Snapshot of the epoch-path counters accumulated by this simulator
    /// (across run/run_batch calls in epoch mode; all zero otherwise).
    /// Reads are thread-safe; concurrent epoch-mode runs accumulate
    /// atomically.
    EpochStats epoch_stats() const noexcept {
        return {epoch_epochs_.load(std::memory_order_relaxed),
                epoch_fired_.load(std::memory_order_relaxed),
                epoch_fallback_fired_.load(std::memory_order_relaxed),
                epoch_rejected_.load(std::memory_order_relaxed)};
    }

    /// Zeroes the epoch counters (test scaffolding).
    void reset_epoch_stats() const noexcept {
        epoch_epochs_.store(0, std::memory_order_relaxed);
        epoch_fired_.store(0, std::memory_order_relaxed);
        epoch_fallback_fired_.store(0, std::memory_order_relaxed);
        epoch_rejected_.store(0, std::memory_order_relaxed);
    }

    /// Advances the chain to its next *fired* interaction: consumes the
    /// (geometrically distributed) run of silent encounters, then fires one
    /// non-silent transition and returns it.  Sets *consumed (if non-null)
    /// to the interactions executed, silent run included.  Returns nullopt
    /// with *consumed == 0 when the configuration is silent (or has < 2
    /// agents), and nullopt with *consumed == budget when the budget ran
    /// out inside the silent run.  Not thread-safe.
    std::optional<TransitionId> fired_step(Config& config, Rng& rng, std::uint64_t budget,
                                           std::uint64_t* consumed = nullptr) const;

    /// Samples the states of a uniform ordered pair of distinct agents
    /// without mutating `config` — the scheduler's encounter distribution.
    /// Exposed for statistical tests.  Not thread-safe.
    std::pair<StateId, StateId> sample_pair(const Config& config, Rng& rng) const;

    /// The output trap W_b used for convergence detection (exposed for
    /// tests and for the stable-set experiments).
    const std::vector<bool>& output_trap(int b) const { return traps_[b]; }

    /// True iff the configuration is silent: every enabled pair of states
    /// has only the implicit silent transition.  O(1) when `config` owns the
    /// cached step context (the W == 0 identity); otherwise a counts-based
    /// rescan over min(#non-silent pairs, |support|²) candidates.  Throws
    /// std::logic_error unless `config` has one entry per protocol state.
    bool is_silent(const Config& config) const;

    /// True iff one of the two sound stability conditions holds.  O(1) when
    /// `config` owns the cached step context (the per-trap outside-support
    /// counters maintained along step/run_batch/fired_step trajectories);
    /// otherwise a support scan plus a silence rescan.  Throws
    /// std::logic_error unless `config` has one entry per protocol state.
    bool is_provably_stable(const Config& config) const;

private:
    /// Incremental per-configuration sampler state, templated on the pair
    /// weight type: int64 while every ordered pair weight fits (populations
    /// ≤ 2³¹ agents), Int128 beyond.  Everything here is a function of
    /// (protocol, current counts); run() keeps one on the stack,
    /// step()/run_batch()/fired_step() share the cached one (per width)
    /// keyed on (config address, config version).
    ///
    /// The ordered pair weights (c(c−1) for self pairs, 2·c_p·c_q
    /// otherwise, by PairId) live in two layers: `pair_weights` and
    /// `active_weight` are exact after every count change at O(deg) array
    /// cost, while the Fenwick `pair_tree` used for O(log #pairs)
    /// fired-pair selection lags behind by the queued `dirty` deltas,
    /// flushed (or rebuilt, when cheaper) only when a sparse-regime
    /// selection actually needs it — dense-regime stepping never pays tree
    /// maintenance.
    template <typename Weight>
    struct StepContextT {
        FenwickTree agents;  ///< Fenwick tree over the count vector
        std::vector<Weight> pair_weights;  ///< exact weights, by PairId
        Weight active_weight = 0;          ///< Σ pair_weights = W; 0 ⟺ silent
        /// Fenwick tree over pair_weights as of the last flush.
        BasicFenwickTree<Weight> pair_tree;
        /// (PairId, Δweight) changes not yet added to pair_tree.  Once it
        /// reaches the rebuild threshold it stops growing and the next flush
        /// rebuilds the whole tree from pair_weights instead, so the queue —
        /// and per-update work — stays bounded through arbitrarily long
        /// dense phases.
        std::vector<std::pair<Protocol::PairId, Weight>> dirty;
        /// Scan mode only: partner_weight[q] = Σ counts[p] over non-self
        /// non-silent partners p of q, which maintains active_weight with a
        /// single multiply per count change instead of per-pair products
        /// (scan selection recomputes per-pair weights from the counts).
        std::vector<AgentCount> partner_weight;
        /// Agents currently outside each output trap W_b — 0 ⟺ the trap
        /// captured the whole population, i.e. the output is stably b.
        /// Maintained in apply_count_delta, so stability probes along a
        /// trajectory are O(1) counter reads.
        AgentCount outside_trap[2] = {0, 0};
        /// Epoch-mode scratch, lazily sized to |Q| and kept all-zero between
        /// epochs via the touched lists (clearing is O(|touched|), so the
        /// per-epoch cost never scales with |Q|): per-state expected
        /// consumption rate (in units of W), realized consumption of the
        /// current draw, net count delta of the current draw.
        std::vector<double> epoch_rate;
        std::vector<AgentCount> epoch_cons;
        std::vector<AgentCount> epoch_delta;
        std::vector<StateId> epoch_rate_touched;
        std::vector<StateId> epoch_touched;
        const Config* owner = nullptr;
        std::uint64_t version = 0;

        /// The O(1) stable-consensus probe: a trap holds the whole
        /// population, or the configuration is silent (W == 0).
        bool provably_stable() const noexcept {
            return outside_trap[0] == 0 || outside_trap[1] == 0 || active_weight == 0;
        }
    };

    /// Pair weights fit int64 exactly when n(n−1) does: n ≤ 2³¹ agents.
    static bool pairs_fit_int64(AgentCount population) noexcept {
        return population <= (AgentCount{1} << 31);
    }

    void compute_output_traps();

    template <typename W>
    void init_context(StepContextT<W>& ctx, const Config& config) const;
    template <typename W>
    StepContextT<W>& cached_context(const Config& config) const;

    /// The cached context of `config` iff it is current (same object, same
    /// version — i.e. the incremental counters describe exactly this
    /// value); nullptr otherwise.  Read-only: never (re)initialises.
    template <typename W>
    const StepContextT<W>* current_cached_context(const Config& config) const;

    /// Adds `delta` agents to state q, keeping the agent tree and the exact
    /// pair-weight layer in sync (O(deg(q)) via the protocol's per-pair
    /// delta table; the pair-tree updates are only queued).
    template <typename W>
    void apply_count_delta(StepContextT<W>& ctx, Config& config, StateId q,
                           AgentCount delta) const;
    template <typename W>
    void fire_in_context(StepContextT<W>& ctx, Config& config, const Transition& t) const;

    /// Brings the pair tree up to date with pair_weights: adds the queued
    /// deltas, or rebuilds outright once that is cheaper.
    template <typename W>
    void flush_pair_tree(StepContextT<W>& ctx) const;

    std::pair<StateId, StateId> sample_pair_in_agents(const FenwickTree& agents, Rng& rng) const;

    /// One scheduler encounter: a uniform ordered pair of distinct agents,
    /// firing one of its rules if it has any (nullopt: a silent encounter).
    template <typename W>
    std::optional<TransitionId> encounter(StepContextT<W>& ctx, Config& config, Rng& rng) const;

    /// Advances the interaction chain by up to `budget` interactions:
    /// consumes the (geometrically distributed) run of silent encounters,
    /// then fires one non-silent transition.  Sets *consumed to the number
    /// of interactions executed (silent run + the firing one), never more
    /// than `budget`.  Returns nullopt with *consumed == 0 iff the
    /// configuration is silent, and nullopt with *consumed == budget when
    /// the budget ran out first.
    template <typename W>
    std::optional<TransitionId> advance(StepContextT<W>& ctx, Config& config, Rng& rng,
                                        std::uint64_t budget, std::uint64_t* consumed) const;

    /// Serves up to one epoch of fired steps as a single multinomial draw
    /// over the pair-weight Fenwick, applied as aggregated per-state count
    /// deltas in one pass, plus one negative-binomial draw for the silent
    /// encounters interleaved among them.  Returns false when no profitable
    /// epoch exists at the current weights (the caller takes the exact
    /// per-step path); returns true with *consumed == 0 iff the
    /// configuration is silent.  Requires the options step_loop validates.
    /// `stats` accumulates the local counters (merged into the atomics once
    /// per step_loop).
    template <typename W>
    bool advance_epoch(StepContextT<W>& ctx, Config& config, Rng& rng, std::uint64_t budget,
                       const EpochOptions& epoch, std::uint64_t* consumed, std::uint64_t* fired,
                       EpochStats& stats) const;

    void merge_epoch_stats(const EpochStats& stats) const noexcept;

    /// The one stepping loop behind run() (stack context, stop_when_stable)
    /// and run_batch() (cached context).  `interactions` and `fired` are
    /// running totals, in/out: ticks report them and the loop stops once
    /// `interactions` reaches max_interactions.  In epoch mode it first
    /// validates the epoch options (throws std::invalid_argument).
    template <typename W>
    void step_loop(StepContextT<W>& ctx, Config& config, Rng& rng,
                   std::uint64_t max_interactions, bool stop_when_stable,
                   const CheckpointHook* hook, StepMode step_mode, const EpochOptions& epoch,
                   std::uint64_t& interactions, std::uint64_t& fired) const;

    /// Runs body(ctx) on the cached context of `config` at its population's
    /// weight width, then marks that context current for config's version.
    template <typename F>
    auto on_cached_context(const Config& config, F&& body) const;

    // A copy shares the protocol's tables (O(1)) and keeps them alive, so a
    // simulator never dangles on a temporary.
    Protocol protocol_;
    PairSelect pair_select_;
    TrapCompute trap_compute_;
    double trap_setup_seconds_ = 0.0;
    std::vector<bool> traps_[2];  // traps_[b][q]: q belongs to the b-trap
    /// outside_mask_[q]: bit b set ⟺ q lies *outside* trap b — one byte
    /// load resolves both per-trap counter updates on the count-delta path.
    std::vector<std::uint8_t> outside_mask_;

    // Epoch-path counters (EpochStats), relaxed atomics so thread-safe
    // run() calls in epoch mode can accumulate concurrently.
    mutable std::atomic<std::uint64_t> epoch_epochs_{0};
    mutable std::atomic<std::uint64_t> epoch_fired_{0};
    mutable std::atomic<std::uint64_t> epoch_fallback_fired_{0};
    mutable std::atomic<std::uint64_t> epoch_rejected_{0};

    mutable StepContextT<std::int64_t> cache64_;
    mutable StepContextT<Int128> cache128_;

    template <typename W>
    StepContextT<W>& cache_slot() const noexcept;
};

}  // namespace ppsc
