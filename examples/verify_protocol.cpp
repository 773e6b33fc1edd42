// Debugging a broken protocol with the exhaustive verifier.
//
//   $ ./verify_protocol
//
// A deliberately buggy threshold protocol (a careless "optimisation" of
// Example 2.1) is model-checked; the verifier pinpoints the failing input
// and produces a counterexample configuration.  The fixed protocol then
// verifies cleanly — the workflow used throughout this library's own test
// suite.  Finally the threshold of a member of the double-exponential
// family from the follow-up paper is recovered by exact verification.
#include <cstdio>

#include "core/protocol.hpp"
#include "protocols/double_exp_threshold.hpp"
#include "verify/verifier.hpp"

using namespace ppsc;

namespace {

/// Buggy x >= 3: the author remembered "2+2 reaches the threshold" and a
/// cute "split a 2 back into 1+1" rule, but forgot the 2+1 rule.  Input 3
/// then cycles between {3·v1} and {v1, v0, v2} forever and stabilises to
/// the wrong answer.
Protocol buggy_threshold3() {
    ProtocolBuilder b;
    const StateId v0 = b.add_state("v0", 0);
    const StateId v1 = b.add_state("v1", 0);
    const StateId v2 = b.add_state("v2", 0);
    const StateId top = b.add_state("T", 1);
    b.set_input("x", v1);
    b.add_transition(v1, v1, v0, v2);    // 1+1 = 2
    b.add_transition(v2, v2, top, top);  // 2+2 >= 3
    b.add_transition(v2, v0, v1, v1);    // split a 2 (value-conserving)
    // BUG: missing v2,v1 -> T,T.
    for (const StateId y : {v0, v1, v2}) b.add_transition(top, y, top, top);
    return std::move(b).build();
}

/// The correct version: value conservation, capped at 3.
Protocol fixed_threshold3() {
    ProtocolBuilder b;
    const StateId v0 = b.add_state("v0", 0);
    const StateId v1 = b.add_state("v1", 0);
    const StateId v2 = b.add_state("v2", 0);
    const StateId top = b.add_state("T", 1);
    b.set_input("x", v1);
    b.add_transition(v1, v1, v0, v2);
    b.add_transition(v2, v1, top, top);
    b.add_transition(v2, v2, top, top);
    for (const StateId y : {v0, v1, v2}) b.add_transition(top, y, top, top);
    return std::move(b).build();
}

void report(const char* name, const Protocol& protocol) {
    const Verifier verifier(protocol);
    const PredicateCheck check = verifier.check_predicate(Predicate::x_at_least(3), 2, 9);
    std::printf("%s: %s\n", name, check.holds ? "verified correct" : "BROKEN");
    for (const InputVerdict& failure : check.failures) {
        std::printf("  input %lld: ", static_cast<long long>(failure.input[0]));
        if (!failure.well_specified) {
            std::printf("ill-specified (fair executions disagree)");
        } else {
            std::printf("computes %d, expected %d", *failure.computed,
                        failure.input[0] >= 3 ? 1 : 0);
        }
        if (failure.counterexample)
            std::printf("; counterexample %s",
                        failure.counterexample->to_string(protocol.state_names()).c_str());
        std::printf("\n");
    }
}

/// The double-exponential family: double_exp_threshold(1) decides
/// x ≥ 2^(2^1) = 4 with 2¹ + 3 = 5 states.  infer_threshold recovers η
/// from the verdict pattern alone.
void report_family() {
    const Protocol protocol = protocols::double_exp_threshold(1);
    const Verifier verifier(protocol);
    const AgentCount max_input = 9;

    const auto exact = verifier.infer_threshold(max_input);
    std::printf("double_exp(1)     : threshold x >= %lld (exact)\n",
                exact ? static_cast<long long>(*exact) : -1);
}

}  // namespace

int main() try {
    report("buggy threshold-3 ", buggy_threshold3());
    report("fixed threshold-3 ", fixed_threshold3());
    report_family();
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
