// Text format for population protocols.
//
// A small line-oriented format so protocols can be shipped as data files
// and driven from the command line (examples/protocol_tool):
//
//     # threshold-2 detector
//     state x 0
//     state T 1
//     input x -> x
//     leaders T 1            # optional
//     trans x x -> T T
//     trans x T -> T T
//
// Lines: `state <name> <0|1>`, `input <var> -> <state>`,
// `leaders <state> <count>`, `trans <p> <q> -> <p'> <q'>`; `#` starts a
// comment; blank lines ignored.  A count is an optional `+`/`-` and one
// or more decimal digits (support/parse.hpp), within int64 and positive;
// the leader total must stay within int64 too.  Each unordered pre-pair may carry one
// `trans` rule; a further rule for the same pair (a nondeterministic
// protocol) must be written `trans+ <p> <q> -> <p'> <q'>` — a plain
// `trans` re-targeting an already-defined pair is a typed parse error
// (DuplicateRuleError below), and a byte-identical duplicate is a warning.
//
// parse_protocol is the one reader of this text: it records the source
// line of every state and transition it builds (ParseReport), and
// diagnostics such as `protocol_tool analyze`'s `file:line` take their
// lines from there.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/protocol.hpp"

namespace ppsc {

/// Conflicting redefinition of a pre-pair: two `trans` lines with the same
/// unordered pre-pair but different post-pairs.  The text format describes
/// deterministic rule tables (nondeterministic protocols are built
/// programmatically via ProtocolBuilder, which accepts multiple rules per
/// pair), so a redefinition is overwhelmingly a typo — a typed error rather
/// than a silent last-writer-wins or an accidental nondeterministic merge.
class DuplicateRuleError : public std::invalid_argument {
public:
    DuplicateRuleError(std::size_t line, std::size_t previous_line, const std::string& what)
        : std::invalid_argument(what), line_(line), previous_line_(previous_line) {}

    /// Line of the conflicting redefinition.
    std::size_t line() const noexcept { return line_; }
    /// Line of the original definition it conflicts with.
    std::size_t previous_line() const noexcept { return previous_line_; }

private:
    std::size_t line_;
    std::size_t previous_line_;
};

/// Non-fatal parser finding (e.g. a byte-identical duplicate rule).
struct ParseWarning {
    std::size_t line = 0;
    std::string message;
};

/// What parse_protocol found besides the protocol: its warnings, and the
/// 1-based source line of every state and transition, for diagnostics.
struct ParseReport {
    std::vector<ParseWarning> warnings;
    /// Line of each state's `state` declaration, indexed by StateId.
    std::vector<std::size_t> state_line;
    /// Line of the first `trans`/`trans+` that defines each transition,
    /// indexed by TransitionId.
    std::vector<std::size_t> transition_line;
};

/// Parses the format above.  Throws std::invalid_argument with a
/// line-numbered message on any syntax or semantic error, and the typed
/// DuplicateRuleError subtype when the same pre-pair is redefined with a
/// different post-pair.  A byte-identical duplicate rule is legal but
/// reported as a warning.  `report`, when non-null, receives the warnings
/// and source lines of a successful parse.
Protocol parse_protocol(std::string_view text, ParseReport* report = nullptr);

/// Serialises a protocol back to the text format (round-trips through
/// parse_protocol).
std::string format_protocol(const Protocol& protocol);

}  // namespace ppsc
