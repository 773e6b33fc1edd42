#include "protocols/threshold.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "protocols/double_exp_threshold.hpp"
#include "support/bignat.hpp"

namespace ppsc::protocols {

Protocol unary_threshold(AgentCount eta) {
    if (eta < 1) throw std::invalid_argument("unary_threshold: eta must be >= 1");

    ProtocolBuilder b;
    std::vector<StateId> value(static_cast<std::size_t>(eta) + 1);
    for (AgentCount v = 0; v <= eta; ++v)
        value[static_cast<std::size_t>(v)] =
            b.add_state("v" + std::to_string(v), v == eta ? 1 : 0);
    b.set_input("x", value[1]);

    // a,b ↦ 0,(a+b) if a+b < η;  a,b ↦ η,η otherwise (Example 2.1).
    for (AgentCount a = 0; a <= eta; ++a) {
        for (AgentCount p = a; p <= eta; ++p) {
            const AgentCount sum = a + p;
            if (sum < eta) {
                b.add_transition(value[static_cast<std::size_t>(a)],
                                 value[static_cast<std::size_t>(p)], value[0],
                                 value[static_cast<std::size_t>(sum)]);
            } else {
                b.add_transition(value[static_cast<std::size_t>(a)],
                                 value[static_cast<std::size_t>(p)],
                                 value[static_cast<std::size_t>(eta)],
                                 value[static_cast<std::size_t>(eta)]);
            }
        }
    }
    return std::move(b).build();
}

Protocol binary_threshold_power(int k) {
    if (k < 0 || k > 40)
        throw std::invalid_argument("binary_threshold_power: k must be in [0, 40]");

    ProtocolBuilder b;
    const StateId zero = b.add_state("0", 0);
    std::vector<StateId> power(static_cast<std::size_t>(k) + 1);
    for (int i = 0; i <= k; ++i)
        power[static_cast<std::size_t>(i)] =
            b.add_state("2^" + std::to_string(i), i == k ? 1 : 0);
    b.set_input("x", power[0]);

    // 2^i, 2^i ↦ 0, 2^{i+1} for i < k;   a, 2^k ↦ 2^k, 2^k for all a.
    for (int i = 0; i < k; ++i)
        b.add_transition(power[static_cast<std::size_t>(i)], power[static_cast<std::size_t>(i)],
                         zero, power[static_cast<std::size_t>(i) + 1]);
    b.add_transition(zero, power[static_cast<std::size_t>(k)],
                     power[static_cast<std::size_t>(k)], power[static_cast<std::size_t>(k)]);
    for (int i = 0; i <= k; ++i)
        b.add_transition(power[static_cast<std::size_t>(i)], power[static_cast<std::size_t>(k)],
                         power[static_cast<std::size_t>(k)], power[static_cast<std::size_t>(k)]);
    return std::move(b).build();
}

std::size_t collector_threshold_states(AgentCount eta) {
    if (eta < 1) throw std::invalid_argument("collector_threshold_states: eta must be >= 1");
    return succinct_threshold_states(BigNat(static_cast<std::uint64_t>(eta)));
}

Protocol collector_threshold(AgentCount eta) {
    if (eta < 1) throw std::invalid_argument("collector_threshold: eta must be >= 1");
    if (eta >= (AgentCount{1} << 40))
        throw std::invalid_argument("collector_threshold: eta too large");
    return succinct_threshold(BigNat(static_cast<std::uint64_t>(eta)));
}

}  // namespace ppsc::protocols
