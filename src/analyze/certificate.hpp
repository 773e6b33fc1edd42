// Machine-checkable certificates for protocol-level static analysis.
//
// Every claim the analyzer (analyze/analyze.hpp) makes about a protocol is
// backed by a certificate: a small, self-contained piece of evidence that an
// *independent* checker (analyze/checker.hpp) re-verifies from scratch by
// direct arithmetic over the protocol — never by re-running the inference
// that produced it.  Four kinds:
//
//   invariant  — a vector v ∈ N^Q with v·Δt ≤ 0 for every transition t and
//                v = 0 on every input state, so v·IC(m) = v·L for every
//                input m.  Since v·C is non-increasing along every step,
//                v·C ≤ v·L on every reachable configuration, and every
//                state q with v(q) > v·L is unreachable from every input —
//                a *counting* argument: on leader protocols it can refute
//                states the structural closure pass admits (e.g. a state
//                producible only by two copies of a unique leader).
//   closure    — a set R ⊆ Q containing all input states and the leader
//                support, closed under interaction: if both pre-states of a
//                transition lie in R, both post-states do too.  By induction
//                over firing sequences, every occupied state of every
//                reachable configuration lies in R; the complement Q ∖ R is
//                a siphon that starts empty and can never be entered, so
//                every state outside R is unreachable.
//   dead       — a transition t plus a reference to an invariant/closure
//                certificate proving one of t's pre-states unreachable;
//                t can then never be enabled, let alone fire.
//   consensus  — an output b plus references covering *every* state with
//                output b by an unreachability certificate.  No reachable
//                configuration then contains an agent with output b, so no
//                reachable configuration has consensus b and "stabilizes to
//                b" is refuted outright for every input.
//
// Certificates cross-reference each other by index into the list they were
// emitted in; the checker validates the whole list, so a dangling or
// non-proving reference is a checker error, not undefined behaviour.  The
// text serialisation (format_certificates / parse_certificates) round-trips
// so emitted artifacts can be re-checked by a later process
// (`protocol_tool analyze --check`).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/protocol.hpp"

namespace ppsc::analyze {

enum class CertificateKind {
    invariant,  ///< non-increasing, initially-zero linear invariant
    closure,    ///< interaction-closed reachable-support overapproximation
    dead,       ///< transition with an unreachable pre-state
    consensus,  ///< output b with all b-output states proven unreachable
};

struct Certificate {
    CertificateKind kind = CertificateKind::invariant;

    /// invariant: the coefficients v, indexed by state (size |Q|, all ≥ 0).
    std::vector<std::int64_t> coefficients;

    /// closure: membership of R, indexed by state (size |Q|).
    std::vector<bool> inside;

    /// dead: the transition claimed dead and the unreachable pre-state the
    /// proof hangs on.
    TransitionId transition = -1;
    StateId state = -1;

    /// consensus: the refuted output b ∈ {0, 1}.
    int output = -1;

    /// dead / consensus: indices (into the containing certificate list) of
    /// the invariant/closure certificates the claim rests on.
    std::vector<std::size_t> refs;

    bool operator==(const Certificate&) const = default;
};

/// The states a base certificate proves unreachable: {q : v(q) > v·L} for
/// an invariant (L the protocol's leader multiset), Q ∖ R for a closure,
/// empty for the derived kinds.  Helper shared by the analyzer, the
/// checker, and the tests.
std::vector<bool> claimed_unreachable(const Certificate& certificate, const Protocol& protocol);

/// Line-oriented text serialisation (one `certificate <kind> … end` block
/// per certificate); round-trips through parse_certificates.
std::string format_certificates(std::span<const Certificate> certificates);

/// Parses the serialisation above.  Throws std::invalid_argument with a
/// line-numbered message on any syntax error; semantic validity against a
/// protocol is the checker's job, not the parser's.  Every number is an
/// optional `+`/`-` and one or more decimal digits (support/parse.hpp):
/// coefficients and refs within int64, transition and state ids within
/// int32 (TransitionId / StateId) — an id past that is a parse error, not
/// narrowed onto another id; a negative id parses and the checker rejects it.
std::vector<Certificate> parse_certificates(std::string_view text);

}  // namespace ppsc::analyze
