// Tests for crash-safe checkpoint/restore: format round-trips, a golden
// file pinning format v1, fault-injected loading (truncation at every byte
// offset, a bit flip in every byte), rotation + fallback, and the headline
// kill-and-resume equivalence suite — a trajectory restored from a
// checkpoint finishes byte-identically to one that was never interrupted,
// across the E10 collector and E11 double-exponential families under both
// rule-table representations.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "protocols/double_exp_threshold.hpp"
#include "protocols/leader.hpp"
#include "protocols/threshold.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "support/crc64.hpp"

namespace ppsc {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory, removed on scope exit.
struct TempDir {
    explicit TempDir(const std::string& name)
        : path(fs::temp_directory_path() /
               ("ppsc-ckpt-" + name + "-" + std::to_string(::getpid()))) {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    fs::path path;
};

/// Every file under `root`, recursively, with its size — sorted.
std::vector<std::pair<std::string, std::uintmax_t>> listing(const fs::path& root) {
    std::vector<std::pair<std::string, std::uintmax_t>> files;
    for (const auto& entry : fs::recursive_directory_iterator(root))
        if (entry.is_regular_file()) files.emplace_back(entry.path().string(), entry.file_size());
    std::sort(files.begin(), files.end());
    return files;
}

/// The fixed checkpoint behind the golden file and the format tests.
Checkpoint reference_checkpoint() {
    Checkpoint ck;
    ck.fingerprint = 0x1122334455667788ull;
    std::vector<AgentCount> counts(7, 0);
    counts[0] = 3;
    counts[2] = 1;
    counts[6] = 41;
    ck.config = Config::from_counts(std::move(counts));
    ck.rng_state = 0x9E3779B97F4A7C15ull;
    ck.interactions = 123456789;
    ck.fired = 987654;
    ck.restarts = 3;
    ck.stats.add(1.5);
    ck.stats.add(2.5);
    ck.stats.add(4.0);
    return ck;
}

void expect_matches_reference(const Checkpoint& got) {
    const Checkpoint want = reference_checkpoint();
    EXPECT_EQ(got.fingerprint, want.fingerprint);
    EXPECT_EQ(got.seed_tag, want.seed_tag);
    ASSERT_EQ(got.config.num_states(), want.config.num_states());
    for (std::size_t q = 0; q < want.config.num_states(); ++q)
        EXPECT_EQ(got.config[static_cast<StateId>(q)], want.config[static_cast<StateId>(q)]);
    EXPECT_EQ(got.rng_state, want.rng_state);
    EXPECT_EQ(got.interactions, want.interactions);
    EXPECT_EQ(got.fired, want.fired);
    EXPECT_EQ(got.restarts, want.restarts);
    EXPECT_EQ(got.stats.count(), want.stats.count());
    EXPECT_EQ(got.stats.mean(), want.stats.mean());
    EXPECT_EQ(got.stats.m2(), want.stats.m2());
    EXPECT_EQ(got.stats.raw_min(), want.stats.raw_min());
    EXPECT_EQ(got.stats.raw_max(), want.stats.raw_max());
}

// --- format ----------------------------------------------------------------

TEST(Checkpoint, SerializeParseRoundTrip) {
    const Checkpoint original = reference_checkpoint();
    const auto bytes = serialize_checkpoint(original);
    const CheckpointParse parsed = parse_checkpoint(bytes, original.fingerprint);
    ASSERT_TRUE(parsed.ok()) << parsed.detail;
    expect_matches_reference(*parsed.checkpoint);
}

TEST(Checkpoint, SerializeIsDeterministic) {
    EXPECT_EQ(serialize_checkpoint(reference_checkpoint()),
              serialize_checkpoint(reference_checkpoint()));
}

TEST(Checkpoint, SparseSerializationStaysSmallAtHundredThousandStates) {
    // |Q| = 2^17 + 3 > 10^5, but only the support is serialized.
    const Protocol protocol = protocols::double_exp_threshold(17);
    Checkpoint ck;
    ck.config = protocol.initial_config(1000);
    const auto bytes = serialize_checkpoint(ck);
    EXPECT_LT(bytes.size(), 512u) << "support-sparse encoding must not scale with |Q|";
    const CheckpointParse parsed = parse_checkpoint(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.detail;
    EXPECT_EQ(parsed.checkpoint->config.num_states(), protocol.num_states());
    EXPECT_EQ(parsed.checkpoint->config.size(), 1000);
}

TEST(Checkpoint, GoldenV1FileParsesAndBytesArePinned) {
    const std::string path = std::string(PPSC_TEST_DATA_DIR) + "/golden-v1.ppc";
    const CheckpointParse parsed = load_checkpoint_file(path, 0x1122334455667788ull);
    ASSERT_TRUE(parsed.ok()) << parsed.detail;
    expect_matches_reference(*parsed.checkpoint);

    // The writer must still produce the exact golden bytes: any layout
    // change needs a format-version bump, not a silent drift.
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good());
    const std::vector<std::uint8_t> golden((std::istreambuf_iterator<char>(file)),
                                           std::istreambuf_iterator<char>());
    EXPECT_EQ(serialize_checkpoint(reference_checkpoint()), golden);
}

TEST(Checkpoint, SeedTagFillsTheFormerlyReservedHeaderWord) {
    // The tag digest is part of the format: pinned, and never the untagged 0.
    EXPECT_EQ(checkpoint_seed_tag(7), 0x043a6a56u);
    EXPECT_EQ(checkpoint_seed_tag(8), 0x28fc62b5u);
    for (std::uint64_t seed = 0; seed < 1000; ++seed) EXPECT_NE(checkpoint_seed_tag(seed), 0u);

    Checkpoint tagged = reference_checkpoint();
    tagged.seed_tag = checkpoint_seed_tag(7);
    const auto bytes = serialize_checkpoint(tagged);
    const auto untagged = serialize_checkpoint(reference_checkpoint());
    ASSERT_EQ(bytes.size(), untagged.size());
    // Only the header word at offset 12 and the CRC trailer differ.
    for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
        if (i < 12 || i >= 16) {
            EXPECT_EQ(bytes[i], untagged[i]) << "byte " << i;
        }
    }
    const CheckpointParse parsed = parse_checkpoint(bytes, tagged.fingerprint);
    ASSERT_TRUE(parsed.ok()) << parsed.detail;
    EXPECT_EQ(parsed.checkpoint->seed_tag, checkpoint_seed_tag(7));

    // An untagged snapshot (every file written before the tag) resumes
    // under any seed; a tagged one only under its own.
    EXPECT_TRUE(resumes_seed(reference_checkpoint(), 7));
    EXPECT_TRUE(resumes_seed(reference_checkpoint(), 8));
    EXPECT_TRUE(resumes_seed(tagged, 7));
    EXPECT_FALSE(resumes_seed(tagged, 8));
}

// --- fault injection -------------------------------------------------------

TEST(Checkpoint, TruncationAtEveryOffsetIsRejectedTyped) {
    const auto bytes = serialize_checkpoint(reference_checkpoint());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const CheckpointParse parsed =
            parse_checkpoint(std::span<const std::uint8_t>(bytes.data(), len));
        EXPECT_FALSE(parsed.ok()) << "accepted a truncation to " << len << " bytes";
        EXPECT_FALSE(parsed.checkpoint.has_value());
        EXPECT_NE(parsed.error, CheckpointError::none);
    }
}

TEST(Checkpoint, BitFlipInEveryByteIsRejected) {
    const auto clean = serialize_checkpoint(reference_checkpoint());
    for (std::size_t offset = 0; offset < clean.size(); ++offset) {
        auto bytes = clean;
        bytes[offset] ^= static_cast<std::uint8_t>(1u << (offset % 8));
        const CheckpointParse parsed = parse_checkpoint(bytes, reference_checkpoint().fingerprint);
        EXPECT_FALSE(parsed.ok()) << "accepted a bit flip at offset " << offset;
        EXPECT_FALSE(parsed.checkpoint.has_value());
    }
}

TEST(Checkpoint, WrongMagicAndWrongVersionAreTypedRejections) {
    auto bytes = serialize_checkpoint(reference_checkpoint());
    auto flipped = bytes;
    flipped[0] = 'X';
    EXPECT_EQ(parse_checkpoint(flipped).error, CheckpointError::bad_magic);

    auto future = bytes;
    future[8] = static_cast<std::uint8_t>(kCheckpointFormatVersion + 1);
    EXPECT_EQ(parse_checkpoint(future).error, CheckpointError::bad_version);
}

TEST(Checkpoint, WrongFingerprintIsRejectedAsWrongProtocol) {
    const auto bytes = serialize_checkpoint(reference_checkpoint());
    const CheckpointParse parsed = parse_checkpoint(bytes, 0xDEADBEEFull);
    EXPECT_EQ(parsed.error, CheckpointError::wrong_protocol);
    EXPECT_FALSE(parsed.checkpoint.has_value());
}

TEST(Checkpoint, ForeignFingerprintIsRejectedBeforeSizingTheStateSpace) {
    // A forged but CRC-valid file: empty support, 2³¹ declared states (the
    // format's limit) and a fingerprint of no real protocol.  The parse
    // must turn it away as wrong_protocol before it allocates a dense row
    // of 2³¹ counts (16 GiB), so this returns at once, under ASan too.
    Checkpoint empty;
    empty.config = Config::from_counts({0});
    auto bytes = serialize_checkpoint(empty);
    ASSERT_LT(bytes.size(), 128u);
    const auto put = [&bytes](std::size_t offset, std::uint64_t value) {
        for (std::size_t i = 0; i < 8; ++i)
            bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
    };
    put(16, 0xF0F0F0F0F0F0F0F0ull);          // fingerprint
    put(24, std::uint64_t{1} << 31);          // num_states
    put(bytes.size() - 8, crc64(bytes.data(), bytes.size() - 8));
    const CheckpointParse parsed = parse_checkpoint(bytes, 0x1122334455667788ull);
    EXPECT_EQ(parsed.error, CheckpointError::wrong_protocol);
    EXPECT_FALSE(parsed.checkpoint.has_value());
}

TEST(Checkpoint, CrcValidButInconsistentPayloadIsMalformed) {
    // Break the ascending-support invariant (state 0 -> 5, past the next
    // entry's state 2), then re-seal the CRC so only semantic validation
    // can catch it.
    auto bytes = serialize_checkpoint(reference_checkpoint());
    bytes[40] = 5;  // first support entry's state id (offset 40, u32 LE)
    const std::uint64_t crc = crc64(bytes.data(), bytes.size() - 8);
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    const CheckpointParse parsed = parse_checkpoint(bytes);
    EXPECT_EQ(parsed.error, CheckpointError::malformed);
}

// --- files, rotation, fallback ---------------------------------------------

TEST(Checkpoint, FileWriteIsAtomicAndLeavesNoTemp) {
    const TempDir tmp("file");
    const std::string path = (tmp.path / "snap.ppc").string();
    ASSERT_EQ(write_checkpoint_file(path, reference_checkpoint()), CheckpointError::none);
    ASSERT_EQ(write_checkpoint_file(path, reference_checkpoint()), CheckpointError::none);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    const CheckpointParse parsed = load_checkpoint_file(path);
    ASSERT_TRUE(parsed.ok()) << parsed.detail;
    expect_matches_reference(*parsed.checkpoint);
}

TEST(Checkpoint, RotationKeepsLastK) {
    const TempDir tmp("rotate");
    CheckpointDir dir(tmp.path.string(), 3);
    Checkpoint ck = reference_checkpoint();
    for (int i = 0; i < 7; ++i) {
        ck.interactions = static_cast<std::uint64_t>(i);
        ASSERT_EQ(dir.write(ck), CheckpointError::none);
    }
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(tmp.path)) {
        ++files;
        EXPECT_EQ(entry.path().extension(), ".ppc");
    }
    EXPECT_EQ(files, 3u);
    const CheckpointDir::Latest latest = dir.load_latest();
    ASSERT_TRUE(latest.checkpoint.has_value());
    EXPECT_EQ(latest.checkpoint->interactions, 6u);
    EXPECT_TRUE(latest.rejected.empty());
}

TEST(Checkpoint, LoaderFallsBackPastCorruptNewestSlots) {
    const TempDir tmp("fallback");
    CheckpointDir dir(tmp.path.string(), 4);
    Checkpoint ck = reference_checkpoint();
    std::vector<std::string> paths;
    for (int i = 0; i < 3; ++i) {
        ck.interactions = static_cast<std::uint64_t>(10 + i);
        std::string written;
        ASSERT_EQ(dir.write(ck, &written), CheckpointError::none);
        paths.push_back(written);
    }
    // Truncate the newest slot and garbage the middle one.
    fs::resize_file(paths[2], 17);
    {
        std::ofstream garbage(paths[1], std::ios::binary | std::ios::trunc);
        garbage << "not a checkpoint at all";
    }
    const CheckpointDir::Latest latest = dir.load_latest(reference_checkpoint().fingerprint);
    ASSERT_TRUE(latest.checkpoint.has_value()) << "must fall back to the valid slot";
    EXPECT_EQ(latest.checkpoint->interactions, 10u);
    EXPECT_EQ(latest.path, paths[0]);
    EXPECT_EQ(latest.rejected.size(), 2u);
}

TEST(Checkpoint, MissingDirectoryLoadsEmpty) {
    CheckpointDir dir("/nonexistent/ppsc-checkpoint-test-dir", 2);
    const CheckpointDir::Latest latest = dir.load_latest();
    EXPECT_FALSE(latest.checkpoint.has_value());
    EXPECT_TRUE(latest.rejected.empty());
}

// --- fingerprints and digests ----------------------------------------------

TEST(Checkpoint, FingerprintSeparatesProtocols) {
    const Protocol a = protocols::collector_threshold(9);
    const Protocol b = protocols::collector_threshold(10);
    const Protocol c = protocols::double_exp_threshold(4);
    EXPECT_NE(protocol_fingerprint(a), protocol_fingerprint(b));
    EXPECT_NE(protocol_fingerprint(a), protocol_fingerprint(c));
    EXPECT_EQ(protocol_fingerprint(a), protocol_fingerprint(protocols::collector_threshold(9)));
}

TEST(Checkpoint, FingerprintsOfExistingCheckpointsAreStable) {
    // Checkpoints already on disk carry these values; a fingerprint change
    // would refuse to resume them.  double_exp(13) has |Q| = 8195, past
    // 2²³ triangular pairs, so it pins the other rule-table tag.
    EXPECT_EQ(protocol_fingerprint(protocols::collector_threshold(9)), 0xba80048cc10a32f1ull);
    EXPECT_EQ(protocol_fingerprint(protocols::double_exp_threshold(4)), 0x9b852c91e1c15d0cull);
    EXPECT_EQ(protocol_fingerprint(protocols::double_exp_threshold(13)), 0x120b8cf4ed2507b2ull);
}

TEST(Checkpoint, ConfigDigestSeesEveryCount) {
    Config a = Config::from_counts({3, 0, 2});
    Config b = Config::from_counts({3, 0, 1});
    Config c = Config::from_counts({2, 1, 2});
    EXPECT_NE(config_digest(a), config_digest(b));
    EXPECT_NE(config_digest(a), config_digest(c));
    EXPECT_EQ(config_digest(a), config_digest(Config::from_counts({3, 0, 2})));
}

// --- kill-and-resume equivalence -------------------------------------------

struct TrajectoryEnd {
    std::uint64_t done = 0;
    std::uint64_t fired = 0;
    std::uint64_t rng_state = 0;
    std::uint64_t digest = 0;
};

TrajectoryEnd finish(const Simulator& sim, Config config, Rng rng, std::uint64_t budget,
                     std::uint64_t base_done = 0, std::uint64_t base_fired = 0) {
    std::uint64_t fired = 0;
    const std::uint64_t got = sim.run_batch(config, rng, budget, false, nullptr, &fired);
    return {base_done + got, base_fired + fired, rng.state(), config_digest(config)};
}

TEST(Checkpoint, KillAndResumeIsByteIdenticalAcrossFamilies) {
    struct Variant {
        std::string label;
        Protocol protocol;
        AgentCount population;
    };
    std::vector<Variant> variants;
    // E10 family: collector threshold.  E11 family: double-exponential
    // threshold, succinct and dense constructions.
    variants.push_back({"collector(9)", protocols::collector_threshold(9), 400});
    variants.push_back({"double_exp(4)", protocols::double_exp_threshold(4), 600});
    variants.push_back({"double_exp_dense(3)", protocols::double_exp_threshold_dense(3), 500});
    constexpr std::uint64_t kBudget = 120'000;
    constexpr std::uint64_t kEvery = 2'000;
    for (const Variant& variant : variants) {
        SCOPED_TRACE(variant.label);
        const Simulator sim(variant.protocol);
        const std::uint64_t fingerprint = protocol_fingerprint(variant.protocol);
        const Config start = variant.protocol.initial_config(variant.population);

        // Reference: one uninterrupted trajectory.
        const TrajectoryEnd reference = finish(sim, start, Rng(1234), kBudget);

        // Interrupted: stop at the first checkpoint tick, as a kill would.
        std::optional<Checkpoint> captured;
        CheckpointHook hook;
        hook.every = kEvery;
        hook.callback = [&](const CheckpointTick& tick) {
            Checkpoint ck;
            ck.fingerprint = fingerprint;
            ck.config = tick.config;
            ck.rng_state = tick.rng_state;
            ck.interactions = tick.interactions;
            ck.fired = tick.fired;
            captured = std::move(ck);
            return false;  // die here
        };
        Config interrupted = start;
        Rng rng(1234);
        sim.run_batch(interrupted, rng, kBudget, false, &hook);
        ASSERT_TRUE(captured.has_value()) << "trajectory went silent before the first tick";
        ASSERT_LT(captured->interactions, kBudget);

        // Round-trip the snapshot through the real byte format.
        const CheckpointParse parsed =
            parse_checkpoint(serialize_checkpoint(*captured), fingerprint);
        ASSERT_TRUE(parsed.ok()) << parsed.detail;

        // Resume and run to the same absolute budget.
        Rng resumed_rng(0);
        resumed_rng.set_state(parsed.checkpoint->rng_state);
        const TrajectoryEnd resumed =
            finish(sim, parsed.checkpoint->config, resumed_rng,
                   kBudget - parsed.checkpoint->interactions, parsed.checkpoint->interactions,
                   parsed.checkpoint->fired);

        EXPECT_EQ(resumed.done, reference.done);
        EXPECT_EQ(resumed.fired, reference.fired);
        EXPECT_EQ(resumed.rng_state, reference.rng_state);
        EXPECT_EQ(resumed.digest, reference.digest);
    }
}

TEST(Checkpoint, HookPresenceDoesNotPerturbTheTrajectory) {
    const Protocol protocol = protocols::double_exp_threshold(4);
    const Simulator sim(protocol);
    const Config start = protocol.initial_config(700);
    const TrajectoryEnd plain = finish(sim, start, Rng(77), 80'000);

    CheckpointHook hook;
    hook.every = 1'000;
    std::uint64_t ticks = 0;
    hook.callback = [&](const CheckpointTick&) {
        ++ticks;
        return true;
    };
    Config config = start;
    Rng rng(77);
    std::uint64_t fired = 0;
    const std::uint64_t got = sim.run_batch(config, rng, 80'000, false, &hook, &fired);
    EXPECT_GT(ticks, 0u);
    EXPECT_EQ(got, plain.done);
    EXPECT_EQ(fired, plain.fired);
    EXPECT_EQ(rng.state(), plain.rng_state);
    EXPECT_EQ(config_digest(config), plain.digest);
}

TEST(Checkpoint, SimulatorRunResumesToIdenticalResult) {
    const Protocol protocol = protocols::collector_threshold(9);
    const Simulator sim(protocol);
    const Config start = protocol.initial_config(300);

    SimulationOptions plain;
    Rng reference_rng(5);
    const SimulationResult reference = sim.run(start, reference_rng, plain);
    ASSERT_TRUE(reference.converged);

    // Interrupt the run at its first checkpoint tick.
    std::optional<Checkpoint> captured;
    SimulationOptions interrupting;
    interrupting.checkpoint.every = 1'500;
    interrupting.checkpoint.callback = [&](const CheckpointTick& tick) {
        Checkpoint ck;
        ck.config = tick.config;
        ck.rng_state = tick.rng_state;
        ck.interactions = tick.interactions;
        captured = std::move(ck);
        return false;
    };
    Rng interrupted_rng(5);
    const SimulationResult partial = sim.run(start, interrupted_rng, interrupting);
    ASSERT_TRUE(captured.has_value());
    EXPECT_FALSE(partial.converged);
    ASSERT_LT(captured->interactions, reference.interactions);

    Rng rng(0);
    rng.set_state(captured->rng_state);
    const SimulationResult resumed =
        sim.run(Simulator::Trajectory(sim, captured->config, {captured->interactions, 0, 0}),
                rng, plain);

    EXPECT_EQ(resumed.converged, reference.converged);
    EXPECT_EQ(resumed.interactions, reference.interactions);
    EXPECT_EQ(resumed.output, reference.output);
    EXPECT_EQ(resumed.parallel_time, reference.parallel_time);
    EXPECT_EQ(config_digest(resumed.final_config), config_digest(reference.final_config));
}

TEST(Checkpoint, ConvergenceSweepRowsSurviveCheckpointingAndResume) {
    // leader_threshold's IC(m) holds m + 1 agents: its trials must resume
    // from snapshots of that many, not be taken for another population's.
    const std::vector<AgentCount> populations = {40, 60};
    const auto expected = [](AgentCount i) { return i >= 5 ? 1 : 0; };
    for (const Protocol& protocol :
         {protocols::collector_threshold(5), protocols::leader_threshold(5)}) {
        ConvergenceSweepOptions plain;
        plain.runs_per_size = 6;
        plain.seed = 99;
        plain.parallelism = 1;
        const auto reference = convergence_sweep(protocol, populations, expected, plain);

        const TempDir tmp("sweep");
        ConvergenceSweepOptions checkpointed = plain;
        checkpointed.checkpoint_dir = tmp.path.string();
        checkpointed.checkpoint_every = 500;
        const auto first = convergence_sweep(protocol, populations, expected, checkpointed);
        // Second sweep resumes every trial from its final snapshot.
        const auto second = convergence_sweep(protocol, populations, expected, checkpointed);

        ASSERT_EQ(reference.size(), first.size());
        ASSERT_EQ(reference.size(), second.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            for (const auto* rows : {&first, &second}) {
                EXPECT_EQ((*rows)[i].population, reference[i].population);
                EXPECT_EQ((*rows)[i].converged_runs, reference[i].converged_runs);
                EXPECT_EQ((*rows)[i].mean_parallel_time, reference[i].mean_parallel_time);
                EXPECT_EQ((*rows)[i].stddev_parallel_time, reference[i].stddev_parallel_time);
                EXPECT_EQ((*rows)[i].correct_fraction, reference[i].correct_fraction);
            }
        }
    }
}

TEST(Checkpoint, ConvergenceSweepRefusesAnotherSeedsCheckpoints) {
    const Protocol protocol = protocols::collector_threshold(5);
    const std::vector<AgentCount> populations = {40, 60};
    const auto expected = [](AgentCount i) { return i >= 5 ? 1 : 0; };
    ConvergenceSweepOptions options;
    options.runs_per_size = 3;
    options.seed = 99;
    options.parallelism = 1;
    const auto reference = convergence_sweep(protocol, populations, expected, options);

    const TempDir tmp("sweep-seed");
    options.checkpoint_dir = tmp.path.string();
    options.checkpoint_every = 500;
    convergence_sweep(protocol, populations, expected, options);
    const auto before = listing(tmp.path);
    ASSERT_FALSE(before.empty());

    // Another seed: refused before any trial runs, nothing written or pruned.
    ConvergenceSweepOptions other = options;
    other.seed = 100;
    EXPECT_THROW(convergence_sweep(protocol, populations, expected, other), std::invalid_argument);
    EXPECT_EQ(listing(tmp.path), before);

    // Snapshots written before the tag existed carry 0 there and still
    // resume: strip every tag and re-sweep with the original seed.
    for (const auto& [path, size] : before) {
        CheckpointParse parsed = load_checkpoint_file(path);
        ASSERT_TRUE(parsed.ok()) << parsed.detail;
        parsed.checkpoint->seed_tag = 0;
        ASSERT_EQ(write_checkpoint_file(path, *parsed.checkpoint), CheckpointError::none);
    }
    const auto resumed = convergence_sweep(protocol, populations, expected, options);
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(resumed[i].converged_runs, reference[i].converged_runs);
        EXPECT_EQ(resumed[i].mean_parallel_time, reference[i].mean_parallel_time);
    }
}

TEST(Checkpoint, ConvergenceSweepRefusesAnotherPopulationsCheckpoint) {
    // The fingerprint pins the protocol, not the population: a trial
    // directory holding a snapshot of another population must stop the
    // sweep before any trial runs, not start the trial over and prune.
    const Protocol protocol = protocols::collector_threshold(5);
    const std::vector<AgentCount> populations = {40, 60};
    const auto expected = [](AgentCount i) { return i >= 5 ? 1 : 0; };
    const TempDir tmp("sweep-population");
    ConvergenceSweepOptions options;
    options.runs_per_size = 2;
    options.seed = 99;
    options.parallelism = 1;
    options.checkpoint_dir = tmp.path.string();
    options.checkpoint_every = 500;
    convergence_sweep(protocol, populations, expected, options);

    // The newest p60-r0 snapshot, copied into p40-r0 as its newest slot.
    std::vector<fs::path> p60;
    for (const auto& entry : fs::directory_iterator(tmp.path / "p60-r0"))
        p60.push_back(entry.path());
    ASSERT_FALSE(p60.empty());
    std::sort(p60.begin(), p60.end());
    fs::copy_file(p60.back(), tmp.path / "p40-r0" / "ckpt-9999999999.ppc");
    const auto before = listing(tmp.path);

    try {
        convergence_sweep(protocol, populations, expected, options);
        ADD_FAILURE() << "a snapshot of 60 agents resumed a trial of 40";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("60 agents, not 40"), std::string::npos) << e.what();
    }
    EXPECT_EQ(listing(tmp.path), before);
}

TEST(Checkpoint, ConvergenceSweepFailsLoudlyWhenASnapshotCannotBeWritten) {
    const Protocol protocol = protocols::collector_threshold(5);
    const TempDir tmp("sweep-unwritable");
    std::ofstream(tmp.path / "file") << "not a directory";
    ConvergenceSweepOptions options;
    options.runs_per_size = 2;
    options.parallelism = 1;
    options.checkpoint_dir = (tmp.path / "file" / "sub").string();
    options.checkpoint_every = 500;
    const auto expected = [](AgentCount) { return 1; };
    EXPECT_THROW(convergence_sweep(protocol, {40}, expected, options), std::runtime_error);

    // Only trial p40-r0 fails (its directory is a regular file): on two
    // workers the other must stop claiming trials at once, not run the
    // remaining 63 before the error surfaces.
    options.checkpoint_dir = (tmp.path / "sweep").string();
    options.runs_per_size = 64;
    options.parallelism = 2;
    fs::create_directories(options.checkpoint_dir);
    std::ofstream(tmp.path / "sweep" / "p40-r0") << "not a directory";
    EXPECT_THROW(convergence_sweep(protocol, {40}, expected, options), std::runtime_error);
    std::size_t started = 0;
    for (const auto& entry : fs::directory_iterator(tmp.path / "sweep"))
        started += entry.is_directory() ? 1 : 0;
    EXPECT_LT(started, 16u) << "trials kept running after one failed";
}

TEST(Checkpoint, SweepStopFlagStopsBeforeAnyTrial) {
    const Protocol protocol = protocols::collector_threshold(5);
    std::atomic<bool> stop{true};
    ConvergenceSweepOptions options;
    options.runs_per_size = 4;
    options.parallelism = 1;
    options.stop = &stop;
    const auto rows = convergence_sweep(protocol, {40}, [](AgentCount) { return 1; }, options);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].converged_runs, 0u);
}

TEST(Checkpoint, StatsRestoreContinuesBitIdentically) {
    RunningStats a;
    for (const double x : {3.0, -1.5, 8.25}) a.add(x);
    RunningStats b = RunningStats::restore(a.count(), a.mean(), a.m2(), a.raw_min(), a.raw_max());
    a.add(2.5);
    b.add(2.5);
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.m2(), b.m2());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

}  // namespace
}  // namespace ppsc
