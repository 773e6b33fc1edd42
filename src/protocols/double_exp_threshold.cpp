#include "protocols/double_exp_threshold.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace ppsc::protocols {

namespace {

bool bit_set(const BigNat& value, std::uint64_t bit) {
    const std::size_t limb = static_cast<std::size_t>(bit / 32);
    return limb < value.limbs().size() && ((value.limbs()[limb] >> (bit % 32)) & 1u) != 0;
}

/// Per-collector data: the set bit m it sits on and the shape of its
/// residual need r_m = η mod 2^m (all comparisons against token values 2^j
/// reduce to bit-length arithmetic, so the builder never compares BigNats
/// in the O(k²) transition loops).
struct CollectorInfo {
    std::uint64_t bit = 0;         ///< m: the collector's set bit of η
    std::uint64_t need_top = 0;    ///< top_bit(r_m)
    bool need_is_power = false;    ///< r_m == 2^need_top
};

void validate(const BigNat& eta, const char* who) {
    if (eta.is_zero()) throw std::invalid_argument(std::string(who) + ": eta must be >= 1");
    if (eta.bit_length() > kSuccinctThresholdMaxBits)
        throw std::invalid_argument(std::string(who) + ": eta exceeds " +
                                    std::to_string(kSuccinctThresholdMaxBits) + " bits");
}

/// The set bits of η whose residual η mod 2^m is non-zero, descending,
/// with the residual shape each collector needs.
std::vector<CollectorInfo> collector_bits(const BigNat& eta) {
    std::vector<CollectorInfo> collectors;
    const std::uint64_t k = eta.bit_length() - 1;
    if (k == 0) return collectors;
    BigNat residual = eta - BigNat::power_of_two(k);  // η mod 2^k at m = k
    for (std::uint64_t m = k;; --m) {
        if (bit_set(eta, m) && !residual.is_zero()) {
            const std::uint64_t top = residual.bit_length() - 1;
            collectors.push_back(
                {m, top, residual == BigNat::power_of_two(top)});
        }
        if (m == 0) break;
        if (bit_set(eta, m - 1)) residual -= BigNat::power_of_two(m - 1);
    }
    return collectors;
}

}  // namespace

std::size_t succinct_threshold_states(const BigNat& eta) {
    validate(eta, "succinct_threshold_states");
    if (eta == BigNat(1)) return 2;
    const std::uint64_t k = eta.bit_length() - 1;
    // z + tokens t_0..t_k + T + collectors.
    return static_cast<std::size_t>(k) + 3 + collector_bits(eta).size();
}

Protocol succinct_threshold(const BigNat& eta) {
    validate(eta, "succinct_threshold");

    if (eta == BigNat(1)) {
        // 2-state detector: any agent triggers the accepting epidemic.
        ProtocolBuilder b;
        const StateId x = b.add_state("x", 0);
        const StateId top = b.add_state("T", 1);
        b.set_input("x", x);
        b.add_transition(x, x, top, top);
        b.add_transition(x, top, top, top);
        return std::move(b).build();
    }

    const std::uint64_t k = eta.bit_length() - 1;

    ProtocolBuilder b;
    const StateId z = b.add_state("z", 0);
    std::vector<StateId> token(static_cast<std::size_t>(k) + 1);
    for (std::uint64_t i = 0; i <= k; ++i)
        token[static_cast<std::size_t>(i)] = b.add_state("t" + std::to_string(i), 0);
    const StateId top = b.add_state("T", 1);

    // Collector state c_m exists for each set bit m of η whose residual
    // need r_m = η mod 2^m is non-zero.  c_m "holds" value η − r_m.
    const std::vector<CollectorInfo> infos = collector_bits(eta);
    std::vector<StateId> collector(static_cast<std::size_t>(k) + 1, -1);
    std::vector<const CollectorInfo*> info_of(static_cast<std::size_t>(k) + 1, nullptr);
    for (const CollectorInfo& info : infos) {
        collector[static_cast<std::size_t>(info.bit)] =
            b.add_state("c" + std::to_string(info.bit), 0);
        info_of[static_cast<std::size_t>(info.bit)] = &info;
    }
    b.set_input("x", token[0]);

    // Token merging: t_i, t_i ↦ z, t_{i+1};  top tokens overflow to T.
    for (std::uint64_t i = 0; i < k; ++i)
        b.add_transition(token[static_cast<std::size_t>(i)], token[static_cast<std::size_t>(i)],
                         z, token[static_cast<std::size_t>(i) + 1]);
    b.add_transition(token[static_cast<std::size_t>(k)], token[static_cast<std::size_t>(k)], top,
                     top);  // 2^{k+1} > η

    // A top token starts collecting (or accepts outright if η = 2^k).
    // The partner is unchanged; every state can be the partner.
    const bool exact_power = infos.empty() || infos.front().bit != k;
    const std::size_t num_states_now = b.num_states();
    for (std::size_t partner = 0; partner < num_states_now; ++partner) {
        const auto y = static_cast<StateId>(partner);
        if (y == token[static_cast<std::size_t>(k)]) continue;  // t_k,t_k handled above
        if (exact_power) {
            b.add_transition(token[static_cast<std::size_t>(k)], y, top, top);
        } else {
            b.add_transition(token[static_cast<std::size_t>(k)], y,
                             collector[static_cast<std::size_t>(k)], y);
        }
    }

    // Collector absorption and completion.  A collector holding η − r meets
    // a token 2^j: witnessed value (η − r) + 2^j ≥ η iff 2^j ≥ r — accept;
    // the top-bit token of r continues the walk at the next set bit.
    // All comparisons against r reduce to its precomputed bit shape.
    for (const CollectorInfo& info : infos) {
        const StateId c = collector[static_cast<std::size_t>(info.bit)];
        for (std::uint64_t j = 0; j <= k; ++j) {
            const bool token_covers_need =
                j > info.need_top || (j == info.need_top && info.need_is_power);
            if (token_covers_need) {
                // Witnessed (η − r) + 2^j ≥ η: accept.
                b.add_transition(c, token[static_cast<std::size_t>(j)], top, top);
            } else if (j == info.need_top) {
                // rest = r − 2^j = η mod 2^j, non-zero here (the power-of-two
                // case accepted above), so the next collector exists.
                PPSC_CHECK(collector[static_cast<std::size_t>(j)] >= 0);
                b.add_transition(c, token[static_cast<std::size_t>(j)],
                                 collector[static_cast<std::size_t>(j)], z);
            }
            // Other tokens: silent (they wait to merge upward).
        }
    }
    // Two collectors each hold ≥ 2^k: combined ≥ 2^{k+1} > η.  (Ascending
    // bit order: protocol_fingerprint hashes transitions in order, and the
    // tests pin it, so checkpoints of earlier builds still resume.)
    for (std::size_t i = infos.size(); i-- > 0;) {
        for (std::size_t j = i + 1; j-- > 0;) {
            b.add_transition(collector[static_cast<std::size_t>(infos[i].bit)],
                             collector[static_cast<std::size_t>(infos[j].bit)], top, top);
        }
    }

    // Accepting epidemic.
    for (std::size_t partner = 0; partner < b.num_states(); ++partner) {
        const auto y = static_cast<StateId>(partner);
        if (y != top) b.add_transition(top, y, top, top);
    }
    return std::move(b).build();
}

BigNat double_exp_eta(int n) {
    if (n < 0 || n > 17)
        throw std::invalid_argument("double_exp_eta: n must be in [0, 17]");
    return BigNat::power_of_two(std::uint64_t{1} << n);
}

Protocol double_exp_threshold(int n) {
    if (n < 0 || n > 17)
        throw std::invalid_argument("double_exp_threshold: n must be in [0, 17]");
    return succinct_threshold(double_exp_eta(n));
}

Protocol double_exp_threshold_dense(int n) {
    if (n < 1 || n > 13)
        throw std::invalid_argument("double_exp_threshold_dense: n must be in [1, 13]");
    return succinct_threshold(double_exp_eta(n) - BigNat(1));
}

}  // namespace ppsc::protocols
