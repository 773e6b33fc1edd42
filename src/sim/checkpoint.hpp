// Crash-safe checkpoint/restore of simulation state.
//
// A checkpoint carries everything a trajectory needs to continue
// byte-identically after a crash, OOM-kill, or preemption: the Config
// counts, the Rng state (SplitMix64 — one word restores the stream
// exactly), the interaction/fired/restart counters, and a RunningStats
// accumulator for harness-level aggregates.  Everything else the engine
// keeps per trajectory — Fenwick trees, step contexts, trap
// outside-support counters — is a pure function of (protocol, counts) and
// is *rebuilt* on load by the simulator's context machinery, never
// serialized; the round-trip tests assert the rebuilt state agrees with
// counts-based recomputation.
//
// On-disk format (version 1, little-endian):
//
//   offset  size  field
//        0     8  magic "PPSCCKPT"
//        8     4  format version (u32)
//       12     4  seed tag (u32): checkpoint_seed_tag() of the run's seed,
//                 or 0 for an untagged snapshot (every file written
//                 before the tag, when this word was reserved)
//       16     8  protocol fingerprint (u64) — hash of states, outputs,
//                 transitions, inputs and leaders, so a checkpoint
//                 cannot silently load against the wrong protocol
//       24     8  num_states (u64)
//       32     8  support size S (u64)
//       40   12S  sparse counts: (state u32, count u64) per supported
//                 state, strictly ascending — Θ(|support|) bytes even at
//                 |Q| ≥ 10⁵
//        …    48  rng_state, interactions, fired, restarts (u64 each),
//                 then the RunningStats accumulator (count u64 + four
//                 f64 bit patterns: mean, m2, raw min, raw max)
//     end−8     8  CRC-64/XZ over every preceding byte
//
// Durability: write_checkpoint_file serializes to <path>.tmp, fsyncs,
// and atomically renames over <path> (then fsyncs the directory), so a
// crash mid-write never damages the previous snapshot.  CheckpointDir
// adds keep-last-K rotation (ckpt-<seq>.ppc) and a loader that walks the
// rotation newest-first, rejecting corrupt or truncated files with a
// typed error and falling back to the newest valid sibling.  RunCheckpoints
// puts a seeded run's resume and write policy on top of one CheckpointDir.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "sim/stats.hpp"

namespace ppsc {

struct CheckpointTick;  // sim/simulator.hpp

inline constexpr std::uint32_t kCheckpointFormatVersion = 1;
inline constexpr char kCheckpointMagic[8] = {'P', 'P', 'S', 'C', 'C', 'K', 'P', 'T'};

/// Why a load was rejected.  Every failure mode of a corrupt, truncated,
/// foreign, or future-format file maps to one of these — the loader never
/// crashes and never returns a partially parsed snapshot.
enum class CheckpointError {
    none = 0,        ///< success
    io,              ///< open/read/write/rename failed (detail has errno text)
    truncated,       ///< too short to hold even the fixed header + trailer
    bad_magic,       ///< not a checkpoint file
    bad_version,     ///< format version this reader does not speak
    crc_mismatch,    ///< trailer CRC does not cover the bytes (corruption/truncation)
    malformed,       ///< CRC-valid but semantically inconsistent payload
    wrong_protocol,  ///< fingerprint does not match the expected protocol
};

const char* checkpoint_error_name(CheckpointError error) noexcept;

/// The resumable state of one trajectory (plus harness counters).
/// R3-scoped: every field must round-trip bit-exactly through the on-disk
/// format — integral counters and the sparse counts do trivially; the only
/// floating state (inside RunningStats) travels as IEEE-754 bit images.
// ppsc-lint: serialized-state
struct Checkpoint {
    std::uint64_t fingerprint = 0;    ///< protocol_fingerprint() of the owner
    std::uint32_t seed_tag = 0;       ///< checkpoint_seed_tag() of the run's seed; 0 = untagged
    Config config{0};                 ///< the counts; everything else is rebuilt
    std::uint64_t rng_state = 0;      ///< Rng::state() at the snapshot point
    std::uint64_t interactions = 0;   ///< interactions executed so far
    std::uint64_t fired = 0;          ///< non-silent interactions so far
    std::uint64_t restarts = 0;       ///< harness-level trajectory restarts
    RunningStats stats;               ///< harness-defined accumulator
};

/// Structural hash of a protocol: state names and outputs, transitions,
/// input mapping and leaders.  Two protocols drive identical trajectories
/// from identical seeds iff this matches, so a checkpoint is only resumed
/// into a simulator with the same fingerprint.
std::uint64_t protocol_fingerprint(const Protocol& protocol);

/// A 32-bit digest of a run's seed for Checkpoint::seed_tag, never 0 (the
/// untagged value).  Part of the on-disk format: the high half of the
/// CRC-64/XZ of the seed's eight little-endian bytes, 1 if that is 0.
std::uint32_t checkpoint_seed_tag(std::uint64_t seed);

/// True iff `checkpoint` may continue a run of `seed`: it is untagged or
/// tagged with that seed.  A resume of another seed's snapshot would carry
/// on that seed's stream under this seed's name.
bool resumes_seed(const Checkpoint& checkpoint, std::uint64_t seed);

/// Interactions between the ticks of a durable run's hook unless the caller
/// sets a cadence: rare enough that a crash-safe snapshot costs < 1% of the
/// run, frequent enough that a stop request is honoured within seconds.
inline constexpr std::uint64_t kDefaultCheckpointEvery = 100'000'000;

/// Order-independent-of-nothing digest of a configuration's counts (CRC-64
/// over the sparse serialisation) — the quantity the kill-and-resume
/// equivalence suite and the CI crash-resume smoke compare.
std::uint64_t config_digest(const Config& config);

/// Serialises a checkpoint to the on-disk byte layout (CRC trailer
/// included).  Deterministic: equal checkpoints produce equal bytes.
std::vector<std::uint8_t> serialize_checkpoint(const Checkpoint& checkpoint);

struct CheckpointParse {
    CheckpointError error = CheckpointError::io;
    std::string detail;                     ///< human-readable rejection reason
    std::optional<Checkpoint> checkpoint;   ///< engaged iff error == none
    bool ok() const noexcept { return error == CheckpointError::none; }
};

/// Parses checkpoint bytes, validating magic, version, CRC, payload shape
/// (bounds-checked cursor, ascending support, counts and totals within
/// int64), and — when given — the protocol fingerprint.  Total: every
/// input, corrupt or hostile, yields a typed error, never a crash.
CheckpointParse parse_checkpoint(std::span<const std::uint8_t> bytes,
                                 std::optional<std::uint64_t> expected_fingerprint = std::nullopt);

/// Reads and parses one checkpoint file.
CheckpointParse load_checkpoint_file(const std::string& path,
                                     std::optional<std::uint64_t> expected_fingerprint = std::nullopt);

/// Crash-safe single-file write: <path>.tmp + fsync + atomic rename (+
/// directory fsync).  Returns CheckpointError::io with errno detail on
/// failure; the previous file at <path>, if any, survives intact.
CheckpointError write_checkpoint_file(const std::string& path, const Checkpoint& checkpoint,
                                      std::string* detail = nullptr);

/// A rotation directory of checkpoints: ckpt-<seq>.ppc slots written
/// atomically, pruned to the newest keep_last, and loaded newest-first
/// with per-file typed rejection (fallback to the newest valid sibling).
/// Single-writer: one process owns a rotation directory at a time.
class CheckpointDir {
public:
    explicit CheckpointDir(std::string dir, std::size_t keep_last = 3);

    /// Writes the next rotation slot (creating the directory if needed),
    /// prunes old slots and stale .tmp files.  On success *written_path
    /// (if non-null) names the new file.
    CheckpointError write(const Checkpoint& checkpoint, std::string* written_path = nullptr,
                          std::string* detail = nullptr);

    struct Latest {
        std::optional<Checkpoint> checkpoint;  ///< newest valid snapshot, if any
        std::string path;                      ///< file it came from
        std::vector<std::string> rejected;     ///< "file: reason" per skipped newer file
    };

    /// Walks the rotation newest-first and returns the first checkpoint
    /// that parses and (when expected) fingerprint-matches; every newer
    /// file that had to be skipped is reported in `rejected`.  A missing
    /// or empty directory yields an empty result, not an error.
    Latest load_latest(std::optional<std::uint64_t> expected_fingerprint = std::nullopt) const;

private:
    /// Existing rotation slots as (sequence, filename), ascending.
    std::vector<std::pair<std::uint64_t, std::string>> slots() const;

    std::string dir_;
    std::size_t keep_last_;
};

/// The durable-run policy of one seeded run (a `protocol_tool longrun`, or
/// one convergence-sweep trial) over its rotation directory: which
/// snapshot it may resume, and what a failed write does.
class RunCheckpoints {
public:
    RunCheckpoints(std::string dir, std::size_t keep_last, std::uint64_t fingerprint,
                   std::uint64_t seed)
        : dir_(std::move(dir), keep_last), fingerprint_(fingerprint), seed_(seed) {}

    /// The newest valid snapshot of the protocol (CheckpointDir::load_latest
    /// under the fingerprint), or none.  Throws std::invalid_argument when
    /// that snapshot is a run of another seed, or holds another number of
    /// agents than the run's starting configuration `start` (leaders
    /// included): carrying it on would mix two runs in one.
    CheckpointDir::Latest resume_point(const Config& start) const;

    /// Writes the tick's snapshot, tagged with the run's seed.  Throws
    /// std::runtime_error("checkpoint write failed: <dir>: <reason>") when
    /// the write fails: a durable run that cannot snapshot is not durable.
    void write(const CheckpointTick& tick);

private:
    CheckpointDir dir_;
    std::uint64_t fingerprint_;
    std::uint64_t seed_;
};

}  // namespace ppsc
