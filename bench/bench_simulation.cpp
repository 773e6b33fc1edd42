// Experiments E10/E11 — simulator throughput and convergence-time scaling.
//
// google-benchmark microbenchmarks for the hot paths (interaction
// throughput of the batched engine, the single-step API, fired-step pair
// selection on the double-exponential workload, exhaustive verification)
// followed by the convergence-time series: mean parallel time to stable
// consensus as the population grows, for the succinct threshold protocol —
// the simulation-side context for the paper's introduction (time/state
// trade-offs).
//
// Flags (after the --benchmark_* flags):
//   --skip-sweeps  omits the E10/E11 sweep tables (used by
//                  bench/run_benchmarks.sh, which only wants the JSON
//                  microbenchmark numbers).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "core/protocol_parser.hpp"
#include "diophantine/realisable.hpp"
#include "protocols/double_exp_threshold.hpp"
#include "protocols/families.hpp"
#include "protocols/threshold.hpp"
#include "search/busy_beaver.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "sim/traps.hpp"
#include "stable/stable_sets.hpp"
#include "support/rng.hpp"
#include "verify/verifier.hpp"

using namespace ppsc;

namespace {

// Throughput of the batched engine (Fenwick sampling + incremental silence
// tracking + rejection-free silent-run skipping): interactions per second
// along the exact scheduler-chain distribution.  When a trajectory reaches
// silence the configuration restarts from IC, so the benchmark measures
// sustained full-trajectory throughput.
void BM_SimulatorStep(benchmark::State& state) {
    const Protocol protocol = protocols::collector_threshold(1 << 20);
    const Simulator simulator(protocol);
    const auto population = static_cast<AgentCount>(state.range(0));
    Simulator::Trajectory trajectory(simulator, protocol.initial_config(population));
    Rng rng(11);
    constexpr std::uint64_t kBatch = 1 << 14;
    for (auto _ : state) {
        if (trajectory.run_batch(rng, kBatch) < kBatch)  // went silent
            trajectory.restart(protocol.initial_config(population));
        benchmark::DoNotOptimize(trajectory.config());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(trajectory.interactions()));
}
BENCHMARK(BM_SimulatorStep)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

// The per-call single-step API (one interaction per call on a trajectory's
// Fenwick sampler) — the seed's original benchmark, kept for regression
// tracking.
void BM_SimulatorSingleStep(benchmark::State& state) {
    const Protocol protocol = protocols::collector_threshold(1 << 20);
    const Simulator simulator(protocol);
    Simulator::Trajectory trajectory(
        simulator, protocol.initial_config(static_cast<AgentCount>(state.range(0))));
    Rng rng(11);
    for (auto _ : state) {
        trajectory.step(rng);
        benchmark::DoNotOptimize(trajectory.config());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorSingleStep)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_FullRunToConsensus(benchmark::State& state) {
    const Protocol protocol = protocols::collector_threshold(50);
    const Simulator simulator(protocol);
    std::uint64_t seed = 1;
    for (auto _ : state) {
        Rng rng(seed++);
        const SimulationResult result =
            simulator.run_input(static_cast<AgentCount>(state.range(0)), rng);
        benchmark::DoNotOptimize(result.interactions);
    }
}
BENCHMARK(BM_FullRunToConsensus)->Arg(256)->Arg(1024);

// The trial-parallel convergence sweep (one row, 8 trials).  Wall-clock
// scales with the worker count on multi-core hosts; per-trial results do
// not depend on it.
void BM_ConvergenceSweep(benchmark::State& state) {
    const Protocol protocol = protocols::collector_threshold(32);
    for (auto _ : state) {
        ConvergenceSweepOptions options;
        options.runs_per_size = 8;
        options.parallelism = static_cast<unsigned>(state.range(0));
        const auto rows = convergence_sweep(
            protocol, {40}, [](AgentCount i) { return i >= 32 ? 1 : 0; }, options);
        benchmark::DoNotOptimize(rows);
    }
}
BENCHMARK(BM_ConvergenceSweep)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// --- E11: double-exponential threshold workload -----------------------------

// The dense family instances are expensive to build (Θ(4^n) transitions);
// share them across benchmarks.  Benchmarks run serially on the main
// thread, so a plain map suffices.
const Protocol& e11_dense_protocol(int n) {
    static std::map<int, Protocol> cache;
    auto it = cache.find(n);
    if (it == cache.end())
        it = cache.emplace(n, protocols::double_exp_threshold_dense(n)).first;
    return it->second;
}

// Flagship instances (shared for the same reason; n = 13 has |Q| = 8195,
// which resolves to the sparse rule table — the old dense triangular table
// would need ~134 MB for its 33.6M pair slots).
const Protocol& e11_flagship_protocol(int n) {
    static std::map<int, Protocol> cache;
    auto it = cache.find(n);
    if (it == cache.end()) it = cache.emplace(n, protocols::double_exp_threshold(n)).first;
    return it->second;
}

// Merge-phase engine throughput from IC on a |Q| ≫ 10³ state space
// (items = interactions along the exact scheduler-chain distribution).
void BM_E11MergePhase(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const auto population = static_cast<AgentCount>(state.range(1));
    const Protocol& protocol = e11_dense_protocol(n);
    const Simulator simulator(protocol);
    Simulator::Trajectory trajectory(simulator, protocol.initial_config(population));
    Rng rng(7);
    constexpr std::uint64_t kBatch = 1 << 14;
    for (auto _ : state) {
        if (trajectory.run_batch(rng, kBatch) < kBatch)  // went silent
            trajectory.restart(protocol.initial_config(population));
        benchmark::DoNotOptimize(trajectory.config());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(trajectory.interactions()));
}
BENCHMARK(BM_E11MergePhase)->Args({8, 1 << 12})->Args({10, 1 << 14});

// Fired-step pair selection (items = fired interactions).  Late-epidemic
// configurations put the weight-bearing pairs at the *end* of the
// non-silent pair list — the worst case for the O(#pairs) reference scan
// and the regime the O(log #pairs) pair-weight Fenwick exists for.
void e11_fired_step_bench(benchmark::State& state, const Protocol& protocol,
                          PairSelect select) {
    const auto population = static_cast<AgentCount>(state.range(1));
    const Simulator simulator(protocol, select);
    const StateId top = *protocol.find_state("T");
    const StateId t0 = protocol.input_state(0);
    const AgentCount stragglers = population / 32;
    const auto make_config = [&] {
        Config config(protocol.num_states());
        config.set(top, population - stragglers);
        config.set(t0, stragglers);
        return config;
    };
    Simulator::Trajectory trajectory(simulator, make_config());
    Rng rng(29);
    std::uint64_t fired = 0;
    for (auto _ : state) {
        const auto transition = trajectory.fired_step(rng, std::uint64_t{1} << 40);
        if (transition) {
            ++fired;
        } else {
            // Epidemic finished: all agents in T.
            trajectory.restart(make_config());
        }
        benchmark::DoNotOptimize(trajectory.config());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
void BM_E11FiredStepFenwick(benchmark::State& state) {
    e11_fired_step_bench(state, e11_dense_protocol(static_cast<int>(state.range(0))),
                         PairSelect::fenwick);
}
void BM_E11FiredStepScan(benchmark::State& state) {
    e11_fired_step_bench(state, e11_dense_protocol(static_cast<int>(state.range(0))),
                         PairSelect::scan);
}
BENCHMARK(BM_E11FiredStepFenwick)->Args({8, 1 << 12})->Args({10, 1 << 14});
BENCHMARK(BM_E11FiredStepScan)->Args({8, 1 << 12})->Args({10, 1 << 14});

// The flagship tower: n = 13 (|Q| = 8195, 33.6M triangular pairs) is out of
// reach for a Θ(|Q|²) pair lookup; the hash-table lookup keeps the table at
// Θ(#non-silent pairs).  The n = 10 row shows the step cost is flat in |Q|.
void BM_E11FiredStepFlagship(benchmark::State& state) {
    const Protocol& protocol = e11_flagship_protocol(static_cast<int>(state.range(0)));
    e11_fired_step_bench(state, protocol, PairSelect::automatic);
}
BENCHMARK(BM_E11FiredStepFlagship)->Args({10, 1 << 14})->Args({13, 1 << 14});

// Epoch-batched stepping on the flagship at population 2⁴⁰ (items = FIRED
// interactions, not scheduler interactions: both modes skip the silent
// majority analytically, so fired throughput is the honest comparison).
// Epoch mode draws thousands of merge-frontier firings as one multinomial
// over the pair-weight Fenwick per epoch; the per-step reference resolves
// the same distribution one Fenwick descent at a time.  The gap (≈ 10⁵× on
// a 4-core Xeon) is the acceptance row for engine idea 5 (ROADMAP: ≥ 10⁹
// fired/s at n ≥ 2⁴⁰).
void e11_fired_throughput_bench(benchmark::State& state, StepMode mode) {
    const int n = static_cast<int>(state.range(0));
    const AgentCount population = AgentCount{1} << static_cast<int>(state.range(1));
    const Protocol& protocol = e11_flagship_protocol(n);
    const Simulator simulator(protocol, PairSelect::fenwick);
    Simulator::Trajectory trajectory(simulator, protocol.initial_config(population));
    Rng rng(7);
    // Interactions (fired + skipped) per call; epoch calls cover it in a
    // handful of multinomial draws, per-step calls one firing at a time.
    const std::uint64_t batch = mode == StepMode::epoch ? std::uint64_t{1} << 26
                                                        : std::uint64_t{1} << 20;
    for (auto _ : state) {
        if (trajectory.run_batch(rng, batch, false, nullptr, mode) < batch)  // went silent
            trajectory.restart(protocol.initial_config(population));
        benchmark::DoNotOptimize(trajectory.config());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(trajectory.fired()));
    state.SetLabel(mode == StepMode::epoch ? "fired/s, epoch" : "fired/s, per-step");
}
void BM_E11EpochMergePhase(benchmark::State& state) {
    e11_fired_throughput_bench(state, StepMode::epoch);
}
void BM_E11PerStepMergePhase(benchmark::State& state) {
    e11_fired_throughput_bench(state, StepMode::per_step);
}
BENCHMARK(BM_E11EpochMergePhase)->Args({13, 40});
BENCHMARK(BM_E11PerStepMergePhase)->Args({13, 40});

// Batched engine throughput from IC on the sparse-table flagship (the
// double_exp_threshold(13) merge phase end to end).
void BM_E11SparseMergePhase(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const auto population = static_cast<AgentCount>(state.range(1));
    const Protocol& protocol = e11_flagship_protocol(n);
    const Simulator simulator(protocol);
    Simulator::Trajectory trajectory(simulator, protocol.initial_config(population));
    Rng rng(7);
    constexpr std::uint64_t kBatch = 1 << 14;
    for (auto _ : state) {
        if (trajectory.run_batch(rng, kBatch) < kBatch)  // went silent
            trajectory.restart(protocol.initial_config(population));
        benchmark::DoNotOptimize(trajectory.config());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(trajectory.interactions()));
}
BENCHMARK(BM_E11SparseMergePhase)->Args({13, 1 << 14});

// --- Checkpointing ----------------------------------------------------------

// Snapshot cost at the flagship scale (n = 17, |Q| = 131075): the write
// row measures serialize + crash-safe persist (tmp, fsync, atomic rename,
// rotation prune); the load row measures read + full validation (magic,
// version, CRC-64, payload shape, fingerprint) + Config rebuild.  Both are
// Θ(|support|), not Θ(|Q|) — the sparse encoding is what keeps a 10⁵-state
// checkpoint in the hundreds of bytes.
Checkpoint flagship_checkpoint(const Protocol& protocol) {
    Checkpoint ck;
    ck.fingerprint = protocol_fingerprint(protocol);
    const Simulator simulator(protocol);
    Simulator::Trajectory trajectory(simulator, protocol.initial_config(1 << 14));
    Rng rng(41);
    trajectory.run_batch(rng, 1 << 16);  // realistic mid-run support
    ck.config = std::move(trajectory).config();
    ck.rng_state = rng.state();
    ck.interactions = 1 << 16;
    ck.fired = 1 << 12;
    return ck;
}

void BM_CheckpointWrite(benchmark::State& state) {
    const Protocol& protocol = e11_flagship_protocol(static_cast<int>(state.range(0)));
    const Checkpoint ck = flagship_checkpoint(protocol);
    CheckpointDir dir("bench-checkpoints.tmp", 3);
    std::uint64_t written = 0;
    for (auto _ : state) {
        if (dir.write(ck) != CheckpointError::none) state.SkipWithError("write failed");
        ++written;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(written));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(written * serialize_checkpoint(ck).size()));
    std::filesystem::remove_all("bench-checkpoints.tmp");
}
BENCHMARK(BM_CheckpointWrite)->Arg(17)->Unit(benchmark::kMicrosecond);

void BM_CheckpointLoad(benchmark::State& state) {
    const Protocol& protocol = e11_flagship_protocol(static_cast<int>(state.range(0)));
    const Checkpoint ck = flagship_checkpoint(protocol);
    CheckpointDir dir("bench-checkpoints.tmp", 3);
    if (dir.write(ck) != CheckpointError::none) state.SkipWithError("setup write failed");
    std::uint64_t loaded = 0;
    for (auto _ : state) {
        const CheckpointDir::Latest latest = dir.load_latest(ck.fingerprint);
        if (!latest.checkpoint) state.SkipWithError("load failed");
        benchmark::DoNotOptimize(latest);
        ++loaded;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(loaded));
    std::filesystem::remove_all("bench-checkpoints.tmp");
}
BENCHMARK(BM_CheckpointLoad)->Arg(17)->Unit(benchmark::kMicrosecond);

// Checkpointing overhead on the batched engine: the same run_batch loop as
// the merge-phase row, with a crash-safe snapshot every 10⁸ interactions of
// the whole run — the cadence a week-long run would use.  The trajectory
// keeps the marks across calls and restarts, so almost every call sees
// only the per-step hook branch, exactly what a long-lived call sees.  The
// target is < 1% throughput cost against BM_E11SparseMergePhase; the hook
// itself fires only at fired-step boundaries and consumes no randomness,
// so almost all of the budget is the (rare) write.
void BM_E11MergePhaseCheckpointed(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const auto population = static_cast<AgentCount>(state.range(1));
    const Protocol& protocol = e11_flagship_protocol(n);
    const Simulator simulator(protocol);
    constexpr std::uint64_t kSeed = 7;
    RunCheckpoints checkpoints("bench-checkpoints.tmp", 2, protocol_fingerprint(protocol), kSeed,
                               kSeed);
    Simulator::Trajectory trajectory(simulator, protocol.initial_config(population));
    Rng rng(kSeed);
    const CheckpointHook hook{kDefaultCheckpointEvery, [&](const CheckpointTick& tick) {
        checkpoints.write(tick);
        return true;
    }};
    constexpr std::uint64_t kBatch = 1 << 14;
    for (auto _ : state) {
        if (trajectory.run_batch(rng, kBatch, false, &hook) < kBatch)  // went silent
            trajectory.restart(protocol.initial_config(population));
        benchmark::DoNotOptimize(trajectory.config());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(trajectory.interactions()));
    std::filesystem::remove_all("bench-checkpoints.tmp");
}
BENCHMARK(BM_E11MergePhaseCheckpointed)->Args({13, 1 << 14});

// --- Stable-consensus detection ---------------------------------------------

// Output-trap computation on the flagship tower: the worklist fixpoint
// (O(|T| + evictions · deg), sim/traps.hpp) against the O(passes · |T|)
// reference pass structure.  Eviction chains on this family advance one
// token level per reference pass, so reference cost grows with |Q| · |T| —
// n = 17 (|Q| = 131075) is benchmarked for the worklist only; the
// reference needs tens of billions of transition checks there, which is
// exactly the wall this family of benchmarks documents the removal of.
void trap_compute_bench(benchmark::State& state, TrapCompute kind) {
    const Protocol& protocol = e11_flagship_protocol(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        for (int b = 0; b < 2; ++b) {
            const std::vector<bool> trap = compute_output_trap(protocol, b, kind);
            benchmark::DoNotOptimize(trap);
        }
    }
    state.SetLabel("|Q|=" + std::to_string(protocol.num_states()));
}
void BM_ComputeOutputTrapsWorklist(benchmark::State& state) {
    trap_compute_bench(state, TrapCompute::worklist);
}
void BM_ComputeOutputTrapsReference(benchmark::State& state) {
    trap_compute_bench(state, TrapCompute::reference);
}
BENCHMARK(BM_ComputeOutputTrapsWorklist)->Arg(10)->Arg(13)->Arg(17)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ComputeOutputTrapsReference)->Arg(10)->Arg(13)->Unit(benchmark::kMillisecond);

// Stability probes on a wide-support flagship configuration (tokens spread
// over every level).  `warm` is Trajectory::provably_stable() — the O(1)
// counter read run()/run_batch() use after every fired interaction; `cold`
// is Simulator::is_provably_stable on the same configuration, the
// from-scratch probe (support scan + silence rescan) of a bare
// configuration.
void stability_probe_bench(benchmark::State& state, bool warm) {
    const Protocol& protocol = e11_flagship_protocol(13);
    const Simulator simulator(protocol);
    Config config(protocol.num_states());
    const StateId t0 = protocol.input_state(0);
    for (std::uint64_t level = 0; level < (1u << 13); level += 2)
        config.add(t0 + static_cast<StateId>(level), 1);
    const Simulator::Trajectory trajectory(simulator, std::move(config));
    for (auto _ : state) {
        const bool stable = warm ? trajectory.provably_stable()
                                 : simulator.is_provably_stable(trajectory.config());
        benchmark::DoNotOptimize(stable);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
void BM_StabilityProbeWarm(benchmark::State& state) { stability_probe_bench(state, true); }
void BM_StabilityProbeCold(benchmark::State& state) { stability_probe_bench(state, false); }
BENCHMARK(BM_StabilityProbeWarm);
BENCHMARK(BM_StabilityProbeCold);

// The acceptance row: Simulator construction (trap setup included) plus a
// full convergence run on double_exp_threshold(17) — |Q| = 131075, sparse
// rule table.  The sub-threshold population merges to ≤ 1 token per level
// and the run must detect stability; with the reference trap fixpoint the
// construction alone needed ~5·10¹⁰ transition checks, so this benchmark
// was infeasible before the worklist.
void BM_E11FlagshipConvergence(benchmark::State& state) {
    const Protocol& protocol = e11_flagship_protocol(static_cast<int>(state.range(0)));
    std::uint64_t seed = 17;
    double trap_setup = 0.0;
    for (auto _ : state) {
        const Simulator simulator(protocol);
        trap_setup = simulator.trap_setup_seconds();
        Rng rng(seed++);
        SimulationOptions options;
        options.max_interactions = std::uint64_t{1} << 44;
        const SimulationResult result = simulator.run(protocol.initial_config(1 << 12), rng, options);
        if (!result.converged) state.SkipWithError("flagship run failed to converge");
        benchmark::DoNotOptimize(result.interactions);
    }
    state.counters["trap_setup_s"] = trap_setup;
    state.SetLabel("|Q|=" + std::to_string(protocol.num_states()));
}
BENCHMARK(BM_E11FlagshipConvergence)->Arg(17)->Unit(benchmark::kMillisecond);

// Protocol construction, the fixed cost in front of every flagship sweep:
// build_family("double_exp", {n}) — 2ⁿ + 3 states and ~3·2ⁿ transitions
// through ProtocolBuilder, the tables freed inside the timed region.
void BM_BuildFamily(benchmark::State& state) {
    const std::vector<std::string> args{std::to_string(state.range(0))};
    std::size_t states = 0;
    for (auto _ : state) {
        const Protocol protocol = protocols::build_family("double_exp", args);
        states = protocol.num_states();
        benchmark::DoNotOptimize(states);
    }
    state.SetLabel("|Q|=" + std::to_string(states));
}
BENCHMARK(BM_BuildFamily)->Arg(17)->Unit(benchmark::kMillisecond);

// The .pp parser on format_protocol(double_exp_threshold(n)): what the
// CLI longrun pays before its first step.  Bytes = input text.
void BM_ParseProtocol(benchmark::State& state) {
    const std::string text =
        format_protocol(protocols::double_exp_threshold(static_cast<int>(state.range(0))));
    for (auto _ : state) {
        const Protocol protocol = parse_protocol(text);
        benchmark::DoNotOptimize(protocol.num_transitions());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseProtocol)->Arg(13)->Unit(benchmark::kMillisecond);

void BM_ExhaustiveVerification(benchmark::State& state) {
    const Protocol protocol = protocols::unary_threshold(3);
    const Verifier verifier(protocol);
    for (auto _ : state) {
        const InputVerdict verdict = verifier.verify_input(static_cast<AgentCount>(state.range(0)));
        benchmark::DoNotOptimize(verdict.explored_nodes);
    }
}
BENCHMARK(BM_ExhaustiveVerification)->Arg(6)->Arg(10)->Arg(14);

// --- Analysis stack (PR 6) --------------------------------------------------

// Backward closure over a materialised slice: the round-structured worklist
// on the flat reverse CSR.  The slice (unary_threshold(4), population =
// state.range(0)) has C(pop + 4, 4) nodes; the seed set is Bad_1, the
// stable-set use.
void BM_BackwardClosureSparse(benchmark::State& state) {
    const Protocol protocol = protocols::unary_threshold(4);
    const auto population = static_cast<AgentCount>(state.range(0));
    const ReachabilityGraph graph = ReachabilityGraph::full_slice(protocol, population, {});
    std::vector<bool> bad(graph.num_nodes(), false);
    for (std::size_t node = 0; node < graph.num_nodes(); ++node)
        bad[node] = protocol.consensus_output(graph.config(static_cast<NodeId>(node))) != 1;
    for (auto _ : state) {
        const std::vector<bool> closure = graph.backward_closure(bad);
        benchmark::DoNotOptimize(closure);
    }
    state.SetLabel("nodes=" + std::to_string(graph.num_nodes()));
}
BENCHMARK(BM_BackwardClosureSparse)->Arg(10)->Arg(14);

// The full stable-set pipeline (slice construction by CSR successor
// enumeration, plus the backward closures) on the E11 tower base.
void BM_StableFlagsSparse(benchmark::State& state) {
    const Protocol protocol = protocols::double_exp_threshold(2);
    const auto max_population = static_cast<AgentCount>(state.range(0));
    for (auto _ : state) {
        const StableAnalysis analysis(protocol, max_population);
        benchmark::DoNotOptimize(analysis.stable_counts(1));
    }
}
BENCHMARK(BM_StableFlagsSparse)->Arg(6)->Unit(benchmark::kMillisecond);

// Corollary 5.7 basis computation: incremental-residual completion + O(|T|)
// scatter row assembly.
void BM_RealisableBasisSparse(benchmark::State& state) {
    const Protocol protocol = protocols::collector_threshold(static_cast<AgentCount>(state.range(0)));
    for (auto _ : state) {
        const RealisableBasis basis = realisable_multiset_basis(protocol);
        benchmark::DoNotOptimize(basis.elements);
    }
}
BENCHMARK(BM_RealisableBasisSparse)->Arg(5)->Unit(benchmark::kMillisecond);

// The sampled busy-beaver sweep at n = 4 and n = 5, every canonical
// candidate verified exactly on inputs 2..24.  Items = candidates
// processed.  The search verifies candidates on one worker per hardware
// thread (SearchOptions::parallelism = 0), so the rows are timed, and items
// counted, in wall-clock time.
void BM_BusyBeaverSweepExact(benchmark::State& state) {
    search::SearchOptions options;
    options.max_input = 24;
    options.sample_limit = 64;
    options.max_nodes_per_graph = 60'000;  // blown-budget candidates skip fast
    const auto n = static_cast<std::size_t>(state.range(0));
    std::uint64_t candidates = 0;
    for (auto _ : state) {
        options.seed = 0xbeefcafe + candidates;  // fresh sample per iteration
        const auto outcome = search::busy_beaver_search(n, options);
        candidates += outcome.enumerated;
        benchmark::DoNotOptimize(outcome.best_eta);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(candidates));
}
BENCHMARK(BM_BusyBeaverSweepExact)->Arg(4)->Arg(5)->Unit(benchmark::kMillisecond)->UseRealTime();

// Exact exploration alone, as the busy-beaver search drives it: a fixed
// seeded set of 4 random deterministic 5-state tables, every input 2..24,
// 60 000-node budget.  Arg 0 explores each graph into a fresh
// ReachabilityGraph, arg 1 re-explores one arena for all of them.  Items =
// edges explored.
void BM_ReachabilityExplore(benchmark::State& state) {
    constexpr std::size_t n = 5;
    std::vector<std::pair<StateId, StateId>> pairs;
    for (StateId q = 0; q < static_cast<StateId>(n); ++q)
        for (StateId p = 0; p <= q; ++p) pairs.emplace_back(p, q);
    Rng rng(0x5eed5);
    std::vector<Protocol> candidates;
    for (int c = 0; c < 4; ++c) {
        ProtocolBuilder b;
        const std::uint64_t outputs = 1 + rng.below((1u << n) - 1);
        for (std::size_t q = 0; q < n; ++q)
            b.add_state("q" + std::to_string(q), static_cast<int>((outputs >> q) & 1u));
        b.set_input("x", 0);
        for (const auto& [p, q] : pairs) {
            const auto& [r, s] = pairs[rng.below(pairs.size())];
            b.add_transition(p, q, r, s);
        }
        candidates.push_back(std::move(b).build());
    }
    ReachabilityOptions options;
    options.max_nodes = 60'000;
    const bool reuse = state.range(0) == 1;
    ReachabilityGraph arena;
    std::uint64_t edges = 0;
    for (auto _ : state) {
        for (const Protocol& protocol : candidates) {
            for (AgentCount input = 2; input <= 24; ++input) {
                const Config roots[] = {protocol.initial_config(input)};
                if (reuse) {
                    arena.reexplore(protocol, roots, options);
                    edges += arena.num_edges();
                } else {
                    edges += ReachabilityGraph::explore(protocol, roots, options).num_edges();
                }
            }
        }
        benchmark::DoNotOptimize(edges);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_ReachabilityExplore)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- Static analysis (ppsc-analyze) -----------------------------------------

// The full analyzer on the n = 17 flagship (|Q| = 131075, sparse rule
// table): pass 1 takes the O(|T|) singleton path (cone completion is gated
// off far below this size), pass 2 is one CSR worklist, and the trap lint
// reuses the worklist fixpoint — the whole run must stay linear in the
// protocol, which is what this row documents.
void BM_StaticInvariants(benchmark::State& state) {
    const Protocol& protocol = e11_flagship_protocol(static_cast<int>(state.range(0)));
    std::size_t certificates = 0;
    for (auto _ : state) {
        const analyze::Analysis analysis = analyze::analyze_protocol(protocol);
        if (analysis.cone_inference_ran)
            state.SkipWithError("cone completion ran at flagship scale");
        certificates = analysis.certificates.size();
        benchmark::DoNotOptimize(analysis);
    }
    state.counters["certificates"] = static_cast<double>(certificates);
    state.SetLabel("|Q|=" + std::to_string(protocol.num_states()));
}
BENCHMARK(BM_StaticInvariants)->Arg(17)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    bool skip_sweeps = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--skip-sweeps") == 0) skip_sweeps = true;
    }
    benchmark::RunSpecifiedBenchmarks();
    if (skip_sweeps) return 0;

    auto print_rows = [](const std::vector<ConvergenceRow>& rows) {
        std::printf("%10s %9s %16s %16s %16s %9s\n", "population", "runs", "mean par.time",
                    "stddev", "max", "correct");
        for (const auto& row : rows) {
            char runs_column[32];
            std::snprintf(runs_column, sizeof runs_column, "%llu/%llu",
                          static_cast<unsigned long long>(row.converged_runs),
                          static_cast<unsigned long long>(row.runs));
            std::printf("%10lld %9s %16.1f %16.1f %16.1f %8.0f%%\n",
                        static_cast<long long>(row.population), runs_column,
                        row.mean_parallel_time, row.stddev_parallel_time,
                        row.max_parallel_time, 100.0 * row.correct_fraction);
        }
    };

    std::printf("\n=== E10a: population scaling, fixed eta = 100 ===\n\n");
    const Protocol protocol = protocols::collector_threshold(100);
    ConvergenceSweepOptions options;
    options.runs_per_size = 5;
    options.simulation.max_interactions = 500'000'000;
    print_rows(convergence_sweep(
        protocol, {128, 256, 512, 1024, 2048, 4096},
        [](AgentCount i) { return i >= 100 ? 1 : 0; }, options));
    std::printf("\nshape: for fixed eta, larger populations converge *faster* per parallel\n"
                "unit — surplus tokens make a threshold witness appear early.\n");

    std::printf("\n=== E10b: threshold scaling, population = 1.25·eta (the hard regime) ===\n\n");
    std::printf("%8s %10s %16s\n", "eta", "population", "mean par.time");
    for (const AgentCount eta : {16, 32, 64, 128, 256, 512}) {
        const Protocol p = protocols::collector_threshold(eta);
        ConvergenceSweepOptions sweep;
        sweep.runs_per_size = 5;
        sweep.simulation.max_interactions = 500'000'000;
        const auto rows = convergence_sweep(
            p, {eta + eta / 4}, [eta](AgentCount i) { return i >= eta ? 1 : 0; }, sweep);
        std::printf("%8lld %10lld %16.1f\n", static_cast<long long>(eta),
                    static_cast<long long>(rows[0].population), rows[0].mean_parallel_time);
    }
    std::printf("\nshape: near the threshold the token-merging phase dominates and parallel\n"
                "time grows superlinearly in eta — the time/state trade-off the fast\n"
                "O(polylog) protocols cited in the paper's introduction buy off with many\n"
                "more states.\n");

    std::printf("\n=== E11: double-exponential thresholds (Czerner 2022 regime) ===\n\n");
    std::printf("%22s %8s %12s %10s %12s %10s %14s\n", "protocol", "|Q|", "pairs", "tbl KiB",
                "trap setup s", "population", "interactions/s");
    E11Options e11;
    // n = 13 (flagship only: |Q| = 8195) needs a rule table of Θ(#non-silent
    // pairs); n = 17 (|Q| = 131075) additionally needs the worklist trap
    // fixpoint — the reference pass structure costs ~5·10¹⁰ transition
    // checks there.
    e11.tower_ns = {6, 8, 10, 13, 17};
    e11.max_dense_n = 10;
    e11.populations = {1 << 12, 1 << 16};
    e11.interactions_per_row = 1 << 22;
    for (const ThroughputRow& row : e11_throughput_sweep(e11)) {
        std::printf("%22s %8zu %12zu %10.1f %12.4f %10lld %14.3g\n", row.protocol.c_str(),
                    row.num_states, row.nonsilent_pairs,
                    static_cast<double>(row.rule_table_bytes) / 1024.0, row.trap_setup_seconds,
                    static_cast<long long>(row.population), row.interactions_per_sec);
    }
    std::printf("\nshape: |Q| grows geometrically with n while throughput stays within a\n"
                "small factor — fired-step work is O(log #pairs) via the pair-weight\n"
                "Fenwick tree (the BM_E11FiredStep* microbenchmarks above isolate the\n"
                "selection step against the O(#pairs) reference scan).  Rule-table\n"
                "memory is Θ(#non-silent pairs), not Θ(|Q|²), which is what admits the\n"
                "n = 13 flagship rows, and trap setup stays O(|T|) via the worklist\n"
                "fixpoint (trap setup s column; BM_ComputeOutputTraps* isolates it\n"
                "against the reference), which is what admits the n = 17 rows.\n");

    std::printf("\n=== E11e: epoch-batched stepping, population 2^40 ===\n\n");
    std::printf("%22s %10s %12s %16s %16s %14s %14s\n", "protocol", "mode", "population",
                "interactions", "fired", "interactions/s", "fired/s");
    // The flagship at a population far past 2³² (pair weights in 128-bit):
    // the epoch rows draw the merge frontier's firings as multinomials over
    // the pair-weight Fenwick; the per-step reference resolves the same law
    // one Fenwick descent per firing.  Budgets differ (2³⁶ vs 2²⁶ scheduler
    // interactions) because the reference would need hours on the epoch
    // budget; fired/s is the comparable column either way.
    for (const StepMode mode : {StepMode::epoch, StepMode::per_step}) {
        E11Options epoch_sweep;
        epoch_sweep.tower_ns = {13};
        epoch_sweep.include_dense = false;
        epoch_sweep.populations = {AgentCount{1} << 40};
        epoch_sweep.interactions_per_row =
            mode == StepMode::epoch ? std::uint64_t{1} << 36 : std::uint64_t{1} << 26;
        epoch_sweep.step_mode = mode;
        for (const ThroughputRow& row : e11_throughput_sweep(epoch_sweep)) {
            std::printf("%22s %10s %12s %16llu %16llu %14.3g %14.3g\n", row.protocol.c_str(),
                        mode == StepMode::epoch ? "epoch" : "per-step", "2^40",
                        static_cast<unsigned long long>(row.interactions),
                        static_cast<unsigned long long>(row.fired), row.interactions_per_sec,
                        row.fired_per_sec);
        }
    }
    std::printf("\nshape: the epoch rows sustain >= 10^9 fired interactions/s (ROADMAP\n"
                "acceptance for engine idea 5) — two to three orders past the per-step\n"
                "reference on identical hardware, at identical firing distributions\n"
                "(tests/support_stats/ holds the statistical-equivalence evidence).\n");
    return 0;
}
