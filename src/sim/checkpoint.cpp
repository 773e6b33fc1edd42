#include "sim/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <system_error>

#include "sim/simulator.hpp"
#include "support/crc64.hpp"
#include "support/hash.hpp"
#include "support/parse.hpp"

namespace ppsc {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8;     // magic, version, reserved, fingerprint
constexpr std::size_t kTrailerBytes = 8;                // CRC64
constexpr std::size_t kFixedPayloadBytes = 8 + 8        // num_states, support size
                                           + 8 * 4      // rng, interactions, fired, restarts
                                           + 8 * 5;     // stats accumulator
constexpr std::size_t kMinFileBytes = kHeaderBytes + kFixedPayloadBytes + kTrailerBytes;
constexpr std::size_t kSupportEntryBytes = 4 + 8;       // state u32, count u64

constexpr const char* kSlotPrefix = "ckpt-";
constexpr const char* kSlotSuffix = ".ppc";

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    put_u64(out, bits);
}

/// Bounds-checked little-endian reader; every overrun is reported, never
/// executed (the fault-injection sweep feeds this arbitrary prefixes).
struct Cursor {
    std::span<const std::uint8_t> bytes;
    std::size_t pos = 0;
    bool overrun = false;

    std::uint32_t u32() {
        if (bytes.size() - pos < 4) {
            overrun = true;
            return 0;
        }
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t u64() {
        if (bytes.size() - pos < 8) {
            overrun = true;
            return 0;
        }
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }

    double f64() {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }
};

CheckpointParse reject(CheckpointError error, std::string detail) {
    CheckpointParse parse;
    parse.error = error;
    parse.detail = std::move(detail);
    return parse;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
    // SplitMix64 finalizer over a running accumulator: cheap, well mixed,
    // and stable across platforms (no size_t/hash_combine dependence).
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

std::uint64_t mix_string(std::uint64_t h, std::string_view s) noexcept {
    h = mix(h, s.size());
    for (const char c : s) h = mix(h, static_cast<std::uint8_t>(c));
    return h;
}

/// POSIX write loop + fsync; returns errno (0 on success).
int write_all_synced(const std::string& path, std::span<const std::uint8_t> bytes) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return errno;
    std::size_t written = 0;
    while (written < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
        if (n < 0) {
            if (errno == EINTR) continue;
            const int err = errno;
            ::close(fd);
            return err;
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        return err;
    }
    return ::close(fd) == 0 ? 0 : errno;
}

/// fsync on a directory so a completed rename survives power loss.  Best
/// effort: some filesystems refuse directory fsync; the rename itself is
/// already atomic.
void sync_directory(const std::string& dir) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;
    ::fsync(fd);
    ::close(fd);
}

}  // namespace

const char* checkpoint_error_name(CheckpointError error) noexcept {
    switch (error) {
        case CheckpointError::none: return "none";
        case CheckpointError::io: return "io";
        case CheckpointError::truncated: return "truncated";
        case CheckpointError::bad_magic: return "bad_magic";
        case CheckpointError::bad_version: return "bad_version";
        case CheckpointError::crc_mismatch: return "crc_mismatch";
        case CheckpointError::malformed: return "malformed";
        case CheckpointError::wrong_protocol: return "wrong_protocol";
    }
    return "unknown";
}

std::uint64_t protocol_fingerprint(const Protocol& protocol) {
    std::uint64_t h = mix(0, 0x50505343ull);  // "PPSC"
    h = mix(h, protocol.num_states());
    for (std::size_t q = 0; q < protocol.num_states(); ++q) {
        h = mix_string(h, protocol.state_name(static_cast<StateId>(q)));
        h = mix(h, static_cast<std::uint64_t>(protocol.output(static_cast<StateId>(q))));
    }
    h = mix(h, protocol.num_transitions());
    for (const Transition& t : protocol.transitions()) {
        h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.pre1)) << 32 |
                       static_cast<std::uint32_t>(t.pre2));
        h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.post1)) << 32 |
                       static_cast<std::uint32_t>(t.post2));
    }
    h = mix(h, protocol.input_variables().size());
    for (std::size_t x = 0; x < protocol.input_variables().size(); ++x) {
        h = mix_string(h, protocol.input_variables()[x]);
        h = mix(h, static_cast<std::uint64_t>(protocol.input_state(x)));
    }
    for (std::size_t q = 0; q < protocol.num_states(); ++q)
        h = mix(h, static_cast<std::uint64_t>(protocol.leaders()[static_cast<StateId>(q)]));
    // Tag of the retired dense/sparse rule-table switch, kept so checkpoints
    // written before it was removed still match.
    const std::uint64_t n = protocol.num_states();
    h = mix(h, n * (n + 1) / 2 <= (std::uint64_t{1} << 23) ? 1 : 2);
    return h;
}

std::uint64_t config_digest(const Config& config) {
    std::vector<std::uint8_t> bytes;
    put_u64(bytes, config.num_states());
    for (std::size_t q = 0; q < config.num_states(); ++q) {
        const AgentCount c = config[static_cast<StateId>(q)];
        if (c == 0) continue;
        put_u32(bytes, static_cast<std::uint32_t>(q));
        put_u64(bytes, static_cast<std::uint64_t>(c));
    }
    return crc64(bytes.data(), bytes.size());
}

std::uint32_t checkpoint_seed_tag(std::uint64_t seed) {
    std::vector<std::uint8_t> bytes;
    put_u64(bytes, seed);
    const auto tag = static_cast<std::uint32_t>(crc64(bytes.data(), bytes.size()) >> 32);
    return tag != 0 ? tag : 1;
}

bool resumes_seed(const Checkpoint& checkpoint, std::uint64_t seed) {
    return checkpoint.seed_tag == 0 || checkpoint.seed_tag == checkpoint_seed_tag(seed);
}

std::vector<std::uint8_t> serialize_checkpoint(const Checkpoint& checkpoint) {
    std::vector<std::uint8_t> out;
    const std::vector<StateId> support = checkpoint.config.support();
    out.reserve(kMinFileBytes + kSupportEntryBytes * support.size());

    out.insert(out.end(), std::begin(kCheckpointMagic), std::end(kCheckpointMagic));
    put_u32(out, kCheckpointFormatVersion);
    put_u32(out, checkpoint.seed_tag);
    put_u64(out, checkpoint.fingerprint);

    put_u64(out, checkpoint.config.num_states());
    put_u64(out, support.size());
    for (const StateId q : support) {  // support() is ascending: deterministic bytes
        put_u32(out, static_cast<std::uint32_t>(q));
        put_u64(out, static_cast<std::uint64_t>(checkpoint.config[q]));
    }

    put_u64(out, checkpoint.rng_state);
    put_u64(out, checkpoint.interactions);
    put_u64(out, checkpoint.fired);
    put_u64(out, checkpoint.restarts);
    put_u64(out, checkpoint.stats.count());
    put_f64(out, checkpoint.stats.mean());
    put_f64(out, checkpoint.stats.m2());
    put_f64(out, checkpoint.stats.raw_min());
    put_f64(out, checkpoint.stats.raw_max());

    put_u64(out, crc64(out.data(), out.size()));
    return out;
}

CheckpointParse parse_checkpoint(std::span<const std::uint8_t> bytes,
                                 std::optional<std::uint64_t> expected_fingerprint) {
    // Header checks first so a wrong-kind or future-format file gets the
    // specific error, not a generic CRC complaint.
    if (bytes.size() < kHeaderBytes + kTrailerBytes)
        return reject(CheckpointError::truncated,
                      "file holds " + std::to_string(bytes.size()) + " bytes, header needs " +
                          std::to_string(kHeaderBytes + kTrailerBytes));
    if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof kCheckpointMagic) != 0)
        return reject(CheckpointError::bad_magic, "not a ppsc checkpoint file");

    Cursor cursor{bytes, sizeof kCheckpointMagic};
    const std::uint32_t version = cursor.u32();
    if (version != kCheckpointFormatVersion)
        return reject(CheckpointError::bad_version,
                      "format version " + std::to_string(version) + ", reader speaks " +
                          std::to_string(kCheckpointFormatVersion));
    const std::uint32_t seed_tag = cursor.u32();

    // Integrity before content: a CRC-valid file is byte-for-byte what the
    // writer produced, so every later check only guards against a buggy or
    // hostile *writer*, not bit rot.
    if (bytes.size() < kMinFileBytes)
        return reject(CheckpointError::crc_mismatch,
                      "file shorter than the fixed payload (truncation)");
    Cursor trailer{bytes, bytes.size() - kTrailerBytes};
    const std::uint64_t stored_crc = trailer.u64();
    const std::uint64_t actual_crc = crc64(bytes.data(), bytes.size() - kTrailerBytes);
    if (stored_crc != actual_crc)
        return reject(CheckpointError::crc_mismatch, "CRC64 trailer mismatch");

    // The fingerprint next: it mixes in num_states, so once it matches, the
    // dense count row below is no larger than the caller's own protocol.
    // Compared any later, a forged CRC-valid file of ~100 bytes could make
    // the parse zero-fill 2³¹ counts (16 GiB) before being turned away.
    Checkpoint out;
    out.seed_tag = seed_tag;
    out.fingerprint = cursor.u64();
    if (expected_fingerprint && out.fingerprint != *expected_fingerprint)
        return reject(CheckpointError::wrong_protocol,
                      "checkpoint was written for a different protocol");
    const std::uint64_t num_states = cursor.u64();
    const std::uint64_t support_size = cursor.u64();
    if (num_states > (std::uint64_t{1} << 31))
        return reject(CheckpointError::malformed, "num_states out of range");
    if (support_size > num_states)
        return reject(CheckpointError::malformed, "support larger than the state space");
    const std::size_t payload_rest = kFixedPayloadBytes - 16 + kTrailerBytes;
    if (bytes.size() - cursor.pos != support_size * kSupportEntryBytes + payload_rest)
        return reject(CheckpointError::malformed, "payload size does not match support size");

    std::vector<AgentCount> counts(static_cast<std::size_t>(num_states), 0);
    std::int64_t previous_state = -1;
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; i < support_size; ++i) {
        const std::uint32_t state = cursor.u32();
        const std::uint64_t count = cursor.u64();
        if (state >= num_states || static_cast<std::int64_t>(state) <= previous_state)
            return reject(CheckpointError::malformed, "support entries not ascending");
        if (count == 0 || count > static_cast<std::uint64_t>(std::numeric_limits<AgentCount>::max()))
            return reject(CheckpointError::malformed, "state count out of range");
        total += count;
        if (total > static_cast<std::uint64_t>(std::numeric_limits<AgentCount>::max()))
            return reject(CheckpointError::malformed, "population overflows int64");
        previous_state = static_cast<std::int64_t>(state);
        counts[state] = static_cast<AgentCount>(count);
    }

    out.rng_state = cursor.u64();
    out.interactions = cursor.u64();
    out.fired = cursor.u64();
    out.restarts = cursor.u64();
    const std::uint64_t stats_count = cursor.u64();
    const double stats_mean = cursor.f64();
    const double stats_m2 = cursor.f64();
    const double stats_min = cursor.f64();
    const double stats_max = cursor.f64();
    if (cursor.overrun || cursor.pos != bytes.size() - kTrailerBytes)
        return reject(CheckpointError::malformed, "payload cursor out of step");
    out.stats = RunningStats::restore(stats_count, stats_mean, stats_m2, stats_min, stats_max);
    out.config = Config::from_counts(std::move(counts));

    CheckpointParse parse;
    parse.error = CheckpointError::none;
    parse.checkpoint = std::move(out);
    return parse;
}

CheckpointParse load_checkpoint_file(const std::string& path,
                                     std::optional<std::uint64_t> expected_fingerprint) {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (ec) return reject(CheckpointError::io, path + ": " + ec.message());
    // Anything vastly larger than a plausible checkpoint is rejected before
    // allocation — a corrupt filesystem entry must not OOM the loader.
    constexpr std::uintmax_t kMaxFileBytes = std::uintmax_t{1} << 32;
    if (size > kMaxFileBytes) return reject(CheckpointError::malformed, "file implausibly large");

    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return reject(CheckpointError::io, path + ": " + std::strerror(errno));
    const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
    if (read != bytes.size())
        return reject(CheckpointError::io, path + ": short read");
    return parse_checkpoint(bytes, expected_fingerprint);
}

CheckpointError write_checkpoint_file(const std::string& path, const Checkpoint& checkpoint,
                                      std::string* detail) {
    const std::vector<std::uint8_t> bytes = serialize_checkpoint(checkpoint);
    const std::string tmp = path + ".tmp";
    if (const int err = write_all_synced(tmp, bytes); err != 0) {
        if (detail) *detail = tmp + ": " + std::strerror(err);
        return CheckpointError::io;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (detail) *detail = path + ": " + std::strerror(errno);
        std::remove(tmp.c_str());
        return CheckpointError::io;
    }
    sync_directory(fs::path(path).parent_path().string());
    return CheckpointError::none;
}

CheckpointDir::CheckpointDir(std::string dir, std::size_t keep_last)
    : dir_(std::move(dir)), keep_last_(std::max<std::size_t>(keep_last, 1)) {}

std::vector<std::pair<std::uint64_t, std::string>> CheckpointDir::slots() const {
    std::vector<std::pair<std::uint64_t, std::string>> found;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file(ec)) continue;
        const std::string name = entry.path().filename().string();
        if (!name.starts_with(kSlotPrefix) || !name.ends_with(kSlotSuffix)) continue;
        std::string_view digits = name;
        digits.remove_prefix(std::strlen(kSlotPrefix));
        digits.remove_suffix(std::strlen(kSlotSuffix));
        // write() names a slot by its digits alone: a signed name is no slot.
        const auto seq = parse_integer<std::uint64_t>(digits);
        if (seq.ok() && !digits.starts_with('+') && !digits.starts_with('-'))
            found.emplace_back(seq.value, name);
    }
    std::sort(found.begin(), found.end());
    return found;
}

CheckpointError CheckpointDir::write(const Checkpoint& checkpoint, std::string* written_path,
                                     std::string* detail) {
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        if (detail) *detail = dir_ + ": " + ec.message();
        return CheckpointError::io;
    }

    const auto existing = slots();
    const std::uint64_t seq = existing.empty() ? 1 : existing.back().first + 1;
    char name[64];
    std::snprintf(name, sizeof name, "%s%010llu%s", kSlotPrefix,
                  static_cast<unsigned long long>(seq), kSlotSuffix);
    const std::string path = (fs::path(dir_) / name).string();
    if (const CheckpointError err = write_checkpoint_file(path, checkpoint, detail);
        err != CheckpointError::none)
        return err;
    if (written_path) *written_path = path;

    // Prune: keep the newest keep_last_ slots (the one just written
    // included), and clear any stale .tmp left by a crashed writer.
    auto all = slots();
    while (all.size() > keep_last_) {
        fs::remove(fs::path(dir_) / all.front().second, ec);
        all.erase(all.begin());
    }
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
    }
    return CheckpointError::none;
}

CheckpointDir::Latest CheckpointDir::load_latest(
    std::optional<std::uint64_t> expected_fingerprint) const {
    Latest latest;
    const auto all = slots();
    for (auto it = all.rbegin(); it != all.rend(); ++it) {
        const std::string path = (fs::path(dir_) / it->second).string();
        CheckpointParse parse = load_checkpoint_file(path, expected_fingerprint);
        if (parse.ok()) {
            latest.checkpoint = std::move(parse.checkpoint);
            latest.path = path;
            return latest;
        }
        latest.rejected.push_back(it->second + ": " + checkpoint_error_name(parse.error) +
                                  (parse.detail.empty() ? "" : " (" + parse.detail + ")"));
    }
    return latest;
}

CheckpointDir::Latest RunCheckpoints::resume_point(const Config& start) const {
    CheckpointDir::Latest latest = dir_.load_latest(fingerprint_);
    // The fingerprint pins the protocol only, so the population and the
    // seed are checked here.
    if (latest.checkpoint && latest.checkpoint->config.size() != start.size())
        throw std::invalid_argument(latest.path + " is a run of " +
                                    std::to_string(latest.checkpoint->config.size()) +
                                    " agents, not " + std::to_string(start.size()));
    if (latest.checkpoint && !resumes_seed(*latest.checkpoint, seed_))
        throw std::invalid_argument(latest.path + " is a run of another seed, not " +
                                    std::to_string(user_seed_));
    return latest;
}

void RunCheckpoints::write(const CheckpointTick& tick) {
    const Checkpoint checkpoint{.fingerprint = fingerprint_, .seed_tag = checkpoint_seed_tag(seed_),
                                .config = tick.config, .rng_state = tick.rng_state,
                                .interactions = tick.interactions, .fired = tick.fired,
                                .restarts = tick.restarts, .stats = {}};
    std::string detail;
    if (dir_.write(checkpoint, nullptr, &detail) != CheckpointError::none)
        throw std::runtime_error("checkpoint write failed: " + detail);
}

}  // namespace ppsc
