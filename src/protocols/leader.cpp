#include "protocols/leader.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace ppsc::protocols {

Protocol leader_threshold(AgentCount eta) {
    if (eta < 1) throw std::invalid_argument("leader_threshold: eta must be >= 1");
    if (eta > (AgentCount{1} << 20))
        throw std::invalid_argument("leader_threshold: eta must be <= 2^20");

    ProtocolBuilder b;
    const StateId x = b.add_state("x", 0);
    const StateId z = b.add_state("z", 0);
    const StateId top = b.add_state("T", 1);
    std::vector<StateId> counter(static_cast<std::size_t>(eta));
    for (AgentCount j = 0; j < eta; ++j)
        counter[static_cast<std::size_t>(j)] = b.add_state("l" + std::to_string(j), 0);
    b.set_input("x", x);
    b.add_leaders(counter[0], 1);

    for (AgentCount j = 0; j + 1 < eta; ++j)
        b.add_transition(counter[static_cast<std::size_t>(j)], x,
                         counter[static_cast<std::size_t>(j) + 1], z);
    b.add_transition(counter[static_cast<std::size_t>(eta - 1)], x, top, top);
    for (std::size_t partner = 0; partner < b.num_states(); ++partner) {
        const auto y = static_cast<StateId>(partner);
        if (y != top) b.add_transition(top, y, top, top);
    }
    return std::move(b).build();
}

Protocol leader_counter_cascade(int base, int digits) {
    if (base < 2) throw std::invalid_argument("leader_counter_cascade: base must be >= 2");
    if (digits < 1) throw std::invalid_argument("leader_counter_cascade: digits must be >= 1");
    const double eta = std::pow(static_cast<double>(base), digits);
    if (eta > static_cast<double>(1 << 20))
        throw std::invalid_argument("leader_counter_cascade: base^digits too large");

    ProtocolBuilder b;
    const StateId x = b.add_state("x", 0);
    const StateId z = b.add_state("z", 0);
    const StateId top = b.add_state("T", 1);
    const StateId idle = b.add_state("idle", 0);
    // Controller increment modes, one per digit position.
    std::vector<StateId> inc(static_cast<std::size_t>(digits));
    for (int i = 0; i < digits; ++i)
        inc[static_cast<std::size_t>(i)] = b.add_state("inc" + std::to_string(i), 0);
    // Digit agents: digit i holding value v.
    std::vector<std::vector<StateId>> digit(static_cast<std::size_t>(digits));
    for (int i = 0; i < digits; ++i) {
        digit[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(base));
        for (int v = 0; v < base; ++v)
            digit[static_cast<std::size_t>(i)][static_cast<std::size_t>(v)] =
                b.add_state("d" + std::to_string(i) + "_" + std::to_string(v), 0);
    }
    b.set_input("x", x);
    b.add_leaders(idle, 1);
    for (int i = 0; i < digits; ++i) b.add_leaders(digit[static_cast<std::size_t>(i)][0], 1);

    // Absorb one input token, then run the carry chain.
    b.add_transition(idle, x, inc[0], z);
    for (int i = 0; i < digits; ++i) {
        for (int v = 0; v + 1 < base; ++v)
            b.add_transition(inc[static_cast<std::size_t>(i)],
                             digit[static_cast<std::size_t>(i)][static_cast<std::size_t>(v)], idle,
                             digit[static_cast<std::size_t>(i)][static_cast<std::size_t>(v) + 1]);
        const StateId full =
            digit[static_cast<std::size_t>(i)][static_cast<std::size_t>(base) - 1];
        if (i + 1 < digits) {
            b.add_transition(inc[static_cast<std::size_t>(i)], full,
                             inc[static_cast<std::size_t>(i) + 1],
                             digit[static_cast<std::size_t>(i)][0]);
        } else {
            b.add_transition(inc[static_cast<std::size_t>(i)], full, top, top);  // overflow
        }
    }
    for (std::size_t partner = 0; partner < b.num_states(); ++partner) {
        const auto y = static_cast<StateId>(partner);
        if (y != top) b.add_transition(top, y, top, top);
    }
    return std::move(b).build();
}

}  // namespace ppsc::protocols
