// ppsc_lint — project-specific static analysis for the ppsc codebase.
//
// The engine's headline guarantees (byte-identical resume, trajectory-
// identical backends, bit-identical sweeps across thread counts) are
// *determinism* claims, and determinism is a static property of the code:
// a single stray entropy source, one iteration over an unordered container
// on a trajectory-affecting path, or one silently truncating narrowing in
// the __int128 weight lanes breaks every one of them at once.  This tool
// enforces the corresponding code invariants at the token/line level — no
// libclang dependency, so it builds everywhere the library builds and runs
// in milliseconds as a ctest entry.
//
// Rule catalogue (docs/ARCHITECTURE.md "correctness tooling" has the long
// rationale):
//
//   R1 no-entropy           No entropy sources (std::random_device, rand,
//                           srand, mt19937 et al., time()-derived or
//                           chrono-derived seeds) outside src/support/rng.hpp.
//                           All randomness flows from an explicit seeded Rng.
//   R2 no-unordered-iter    No range-iteration over std::unordered_map/set.
//                           Hash-table iteration order is
//                           implementation-defined; iterating one on a
//                           trajectory-affecting path (src/core, src/sim,
//                           src/support: severity "error") silently breaks
//                           cross-platform determinism.  Elsewhere
//                           (src/diophantine, src/verify, …: severity
//                           "review") the iteration must either be proven
//                           order-insensitive and suppressed with a reason,
//                           or replaced by a sorted extraction.
//   R3 no-float-state       No float/double members inside structs marked
//                           `// ppsc-lint: serialized-state`.  Serialized
//                           simulator/checkpoint state must round-trip
//                           bit-exactly; floating members may only appear
//                           under a suppression explaining their bit-exact
//                           encoding (e.g. IEEE-754 images in u64).
//   R4 checked-narrowing    static_cast from a __int128 value to a narrower
//                           integer type must go through checked_narrow()
//                           (support/check.hpp) or carry a suppression
//                           arguing the range bound.  Silent truncation in
//                           the weight lanes corrupts sampling distributions
//                           without failing any test.
//   R5 validated-parse      Raw numeric parse calls (strtoll, stoll, atoi,
//                           from_chars, sscanf, …) may only appear inside a function
//                           marked `// ppsc-lint: validated-parser` (a
//                           helper that checks the end pointer / full-token
//                           consumption and reports a typed error) or under
//                           a suppression.  Every CLI/file input must be
//                           validated, never silently coerced to 0.
//   R6 pure-assert          No side-effecting expressions (++/--, compound
//                           assignment, plain assignment) inside the
//                           argument list of assert / PPSC_DASSERT /
//                           PPSC_CHECK / PPSC_CHECK_MSG.  assert and
//                           PPSC_DASSERT compile out under NDEBUG, and the
//                           PPSC_CHECK family is contractually side-effect
//                           free (support/check.hpp), so a mutation inside
//                           any of them makes program behaviour depend on
//                           the build mode — the exact class of divergence
//                           this tool exists to prevent.  Arguments are
//                           tracked across line breaks.
//
// Suppressions: `// ppsc-lint: allow(R2) <reason>` on the finding line or
// the line directly above suppresses that one rule there.  The reason is
// mandatory (>= 8 characters): a suppression without one does NOT suppress
// and additionally reports R0 malformed-suppression — suppressions are the
// audit trail, so an unexplained one is itself a defect.
//
// Markers:
//   // ppsc-lint: serialized-state   next struct/class body is R3-scoped
//   // ppsc-lint: validated-parser   next function body is R5-exempt
//   // ppsc-lint: pretend(<path>)    classify this file as if it lived at
//                                    <path> (fixture files use this)
//
// Output: one `file:line: RULE severity: message` per finding (stable
// order: file, then line), summary on stderr, exit 1 iff findings exist.
// `--self-test` runs the fixture corpus under tools/ppsc_lint/fixtures and
// verifies expected findings (`// expect(R2)` annotations) line-for-line.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Findings

struct Finding {
    std::string file;
    int line = 0;
    std::string rule;      // "R1" … "R5", "R0" for malformed suppressions
    std::string severity;  // "error" or "review"
    std::string message;
};

bool operator<(const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
}

// ---------------------------------------------------------------------------
// Line model: each physical line split into code (comments and string/char
// literal *contents* blanked out, structure preserved) and comment text.

struct Line {
    std::string code;     // literal contents replaced by spaces
    std::string comment;  // text of // and /* */ comments on this line
};

/// Splits a source file into code/comment per line.  Tracks block comments
/// and string/char literals across the usual escapes; raw strings are not
/// used in this codebase (and would only cause missed findings, never
/// crashes).
std::vector<Line> split_lines(const std::string& text) {
    std::vector<Line> lines(1);
    bool in_block_comment = false;
    bool in_string = false, in_char = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        Line& line = lines.back();
        if (c == '\n') {
            in_string = in_char = false;  // unterminated literal: recover
            lines.emplace_back();
            continue;
        }
        if (in_block_comment) {
            if (c == '*' && next == '/') {
                in_block_comment = false;
                ++i;
            } else {
                line.comment += c;
            }
            continue;
        }
        if (in_string || in_char) {
            line.code += ' ';
            if (c == '\\') {
                ++i;
                line.code += ' ';
            } else if ((in_string && c == '"') || (in_char && c == '\'')) {
                in_string = in_char = false;
                line.code.back() = c;
            }
            continue;
        }
        if (c == '/' && next == '/') {
            line.comment.append(text, i + 2, text.find('\n', i) - i - 2);
            i = text.find('\n', i);
            if (i == std::string::npos) break;
            lines.emplace_back();
            continue;
        }
        if (c == '/' && next == '*') {
            in_block_comment = true;
            ++i;
            continue;
        }
        if (c == '"') {
            in_string = true;
            line.code += c;
            continue;
        }
        if (c == '\'') {
            // Distinguish char literals from digit separators (1'000'000):
            // a quote directly after an identifier/digit char is a separator.
            if (!line.code.empty() &&
                (std::isalnum(static_cast<unsigned char>(line.code.back())) ||
                 line.code.back() == '_')) {
                line.code += c;
                continue;
            }
            in_char = true;
            line.code += c;
            continue;
        }
        line.code += c;
    }
    return lines;
}

bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Position of a `token` occurrence in `code` delimited by non-identifier
/// characters, npos when absent.
std::size_t find_token(std::string_view code, std::string_view token, std::size_t from = 0) {
    std::size_t pos = from;
    while ((pos = code.find(token, pos)) != std::string_view::npos) {
        const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
        const std::size_t end = pos + token.size();
        const bool right_ok = end >= code.size() || !is_ident_char(code[end]);
        if (left_ok && right_ok) return pos;
        pos += 1;
    }
    return std::string_view::npos;
}

bool has_token(std::string_view code, std::string_view token) {
    return find_token(code, token) != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Suppressions and markers

struct Suppression {
    std::set<std::string> rules;  // rules allowed on the covered line
    bool malformed = false;       // allow() present but reason missing/short
};

/// Parses `ppsc-lint: allow(R2) reason…` out of a comment.  Multiple
/// allow(...) clauses on one line are honoured; the reason is everything
/// after the closing paren (shared by the clauses on that line).
Suppression parse_suppression(const std::string& comment) {
    Suppression result;
    std::size_t pos = comment.find("ppsc-lint:");
    if (pos == std::string::npos) return result;
    std::size_t cursor = pos;
    std::set<std::string> rules;
    std::size_t last_close = std::string::npos;
    while ((cursor = comment.find("allow(", cursor)) != std::string::npos) {
        const std::size_t close = comment.find(')', cursor);
        if (close == std::string::npos) break;
        std::string rule = comment.substr(cursor + 6, close - cursor - 6);
        rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace), rule.end());
        if (!rule.empty()) rules.insert(rule);
        last_close = close;
        cursor = close + 1;
    }
    if (rules.empty()) return result;
    // Reason: everything after the last clause, must be substantive.
    std::string reason = comment.substr(last_close + 1);
    const auto not_space = [](char c) { return !std::isspace(static_cast<unsigned char>(c)); };
    reason.erase(reason.begin(), std::find_if(reason.begin(), reason.end(), not_space));
    if (reason.size() < 8) {
        result.malformed = true;
        return result;
    }
    result.rules = std::move(rules);
    return result;
}

// ---------------------------------------------------------------------------
// Directory classification

enum class PathClass { trajectory, review, exempt_rng, other };

PathClass classify(const std::string& path) {
    const auto contains = [&](std::string_view piece) {
        return path.find(piece) != std::string::npos;
    };
    if (contains("src/support/rng.hpp")) return PathClass::exempt_rng;
    if (contains("src/core/") || contains("src/sim/") || contains("src/support/"))
        return PathClass::trajectory;
    if (contains("src/diophantine/") || contains("src/verify/")) return PathClass::review;
    return PathClass::other;
}

// ---------------------------------------------------------------------------
// Identifier collection (R2 / R4): names declared as unordered containers
// or as __int128 values in a file.  Declaration shapes in this codebase are
// single-line (clang-format keeps them so); multi-line declarations would
// only produce missed findings, caught instead by review.

void collect_declared_names(const std::vector<Line>& lines,
                            std::set<std::string>& unordered_names,
                            std::set<std::string>& int128_names) {
    for (const Line& line : lines) {
        const std::string& code = line.code;
        const auto grab_name_after_type = [&](std::size_t type_pos, std::set<std::string>& out) {
            // Skip template arguments / the rest of the type, then take the
            // first identifier that is followed by one of ; = { ( , ) or
            // end-of-line — good enough for declarations and parameters.
            std::size_t depth = 0;
            std::size_t i = type_pos;
            for (; i < code.size(); ++i) {
                if (code[i] == '<') ++depth;
                if (code[i] == '>' && depth > 0) {
                    --depth;
                    if (depth == 0) {
                        ++i;
                        break;
                    }
                }
                if (depth == 0 && (code[i] == ' ' || code[i] == '&' || code[i] == '*')) break;
            }
            while (i < code.size()) {
                while (i < code.size() && !is_ident_char(code[i])) {
                    // A second type keyword (const, unsigned, …) may follow.
                    if (code[i] == ';' || code[i] == '=' || code[i] == '(') return;
                    ++i;
                }
                std::size_t start = i;
                while (i < code.size() && is_ident_char(code[i])) ++i;
                const std::string word = code.substr(start, i - start);
                static const std::set<std::string> kTypeWords = {
                    "const", "unsigned", "signed", "static", "constexpr", "mutable",
                    "inline", "thread_local", "volatile", "int128", "__int128"};
                if (kTypeWords.count(word)) continue;
                if (word.empty()) return;
                out.insert(word);
                return;
            }
        };
        for (const char* type : {"unordered_map", "unordered_set", "unordered_multimap",
                                 "unordered_multiset"}) {
            std::size_t pos = find_token(code, type);
            if (pos != std::string_view::npos) grab_name_after_type(pos, unordered_names);
        }
        // __int128 declarations: blank out static_cast<...> target regions
        // first so cast targets are not mistaken for declarations, then
        // every remaining `__int128 name` (locals, members, parameters,
        // 128-returning functions) contributes a name.
        std::string blanked = code;
        std::size_t cast = 0;
        while ((cast = blanked.find("static_cast<", cast)) != std::string::npos) {
            const std::size_t close = blanked.find('>', cast);
            if (close == std::string::npos) break;
            for (std::size_t i = cast; i <= close; ++i) blanked[i] = ' ';
            cast = close + 1;
        }
        std::size_t pos = 0;
        while ((pos = find_token(blanked, "__int128", pos)) != std::string_view::npos) {
            grab_name_after_type(pos, int128_names);
            pos += 8;
        }
    }
}

// ---------------------------------------------------------------------------
// The linter proper

struct FileReport {
    std::vector<Finding> findings;
};

const std::set<std::string>& entropy_tokens() {
    static const std::set<std::string> kTokens = {
        "random_device", "srand",        "rand",          "random_shuffle",
        "mt19937",       "mt19937_64",   "minstd_rand",   "minstd_rand0",
        "default_random_engine",         "ranlux24",      "ranlux48",
    };
    return kTokens;
}

const std::set<std::string>& parse_tokens() {
    static const std::set<std::string> kTokens = {
        "atoi",   "atol",   "atoll",   "atof",    "strtol", "strtoll",
        "strtoul", "strtoull", "strtof", "strtod", "sscanf", "fscanf",
        "scanf",  "stoi",   "stol",    "stoll",   "stoul",  "stoull",
        "stof",   "stod",   "from_chars",
    };
    return kTokens;
}

const std::set<std::string>& narrow_cast_targets() {
    static const std::set<std::string> kTargets = {
        "std::int64_t",  "std::uint64_t", "std::int32_t",  "std::uint32_t",
        "std::int16_t",  "std::uint16_t", "std::int8_t",   "std::uint8_t",
        "int64_t",       "uint64_t",      "int32_t",       "uint32_t",
        "int16_t",       "uint16_t",      "int8_t",        "uint8_t",
        "int",           "long",          "unsigned",      "std::size_t",
        "size_t",        "double",        "float",
        // Template weight-lane parameters: casting a __int128 value to W
        // narrows whenever W = int64, so the cast must be audited even
        // though the target is generic.
        "W",             "Weight",
    };
    return kTargets;
}

FileReport lint_file(const std::string& display_path, const std::vector<Line>& lines,
                     const std::set<std::string>& extra_unordered,
                     const std::set<std::string>& extra_int128) {
    FileReport report;

    // Effective path for directory classification (fixtures pretend).
    std::string effective_path = display_path;
    for (const Line& line : lines) {
        const std::size_t pos = line.comment.find("ppsc-lint: pretend(");
        if (pos != std::string::npos) {
            const std::size_t close = line.comment.find(')', pos);
            if (close != std::string::npos)
                effective_path = line.comment.substr(pos + 19, close - pos - 19);
            break;
        }
    }
    const PathClass path_class = classify(effective_path);

    std::set<std::string> unordered_names = extra_unordered;
    std::set<std::string> int128_names = extra_int128;
    collect_declared_names(lines, unordered_names, int128_names);

    // Marker state: R3 serialized-state regions and R5 validated-parser
    // regions are brace-delimited from the marker.
    int brace_depth = 0;
    int serialized_until_depth = -1;  // active while brace_depth > this
    bool serialized_pending = false;
    int parser_until_depth = -1;
    bool parser_pending = false;

    // R6 state: paren depth inside an assertion macro's argument list (0 =
    // not inside one) and the macro's name, carried across physical lines so
    // multi-line assertions are fully scanned.
    int assert_depth = 0;
    std::string assert_macro;

    const auto suppressed = [&](std::size_t line_index, const std::string& rule) {
        // Same line or the line directly above.
        if (parse_suppression(lines[line_index].comment).rules.count(rule)) return true;
        if (line_index > 0 &&
            parse_suppression(lines[line_index - 1].comment).rules.count(rule))
            return true;
        return false;
    };

    const auto add = [&](std::size_t line_index, const std::string& rule,
                         const std::string& severity, const std::string& message) {
        if (suppressed(line_index, rule)) return;
        report.findings.push_back(
            {display_path, static_cast<int>(line_index + 1), rule, severity, message});
    };

    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string& code = lines[li].code;
        const std::string& comment = lines[li].comment;

        // R0: malformed suppressions (allow() without a substantive reason)
        // never suppress and are themselves findings.
        if (parse_suppression(comment).malformed) {
            report.findings.push_back({display_path, static_cast<int>(li + 1), "R0", "error",
                                       "suppression has no reason: `ppsc-lint: allow(<rule>) "
                                       "<why this is safe>` — the reason is the audit trail"});
        }

        // Marker activation.
        if (comment.find("ppsc-lint: serialized-state") != std::string::npos)
            serialized_pending = true;
        if (comment.find("ppsc-lint: validated-parser") != std::string::npos)
            parser_pending = true;

        // Track brace depth over the code text; latch pending markers onto
        // the first opening brace that follows them.
        const int depth_before = brace_depth;
        for (const char c : code) {
            if (c == '{') {
                if (serialized_pending) {
                    serialized_until_depth = brace_depth;
                    serialized_pending = false;
                }
                if (parser_pending) {
                    parser_until_depth = brace_depth;
                    parser_pending = false;
                }
                ++brace_depth;
            } else if (c == '}') {
                --brace_depth;
                if (serialized_until_depth >= 0 && brace_depth <= serialized_until_depth)
                    serialized_until_depth = -1;
                if (parser_until_depth >= 0 && brace_depth <= parser_until_depth)
                    parser_until_depth = -1;
            }
        }
        const bool in_serialized = serialized_until_depth >= 0;
        const bool in_validated_parser = parser_until_depth >= 0;

        if (code.empty()) continue;

        // --- R1: entropy sources --------------------------------------
        if (path_class != PathClass::exempt_rng) {
            for (const std::string& token : entropy_tokens()) {
                if (has_token(code, token)) {
                    add(li, "R1", "error",
                        "entropy source `" + token +
                            "` — all randomness must flow from an explicit seeded Rng "
                            "(src/support/rng.hpp)");
                }
            }
            // time(...) as a call is a seed-grade entropy source; identifiers
            // like elapsed_time or time_stats do not match the bare token.
            const std::size_t tpos = find_token(code, "time");
            if (tpos != std::string_view::npos) {
                std::size_t after = tpos + 4;
                while (after < code.size() && code[after] == ' ') ++after;
                // Member calls (timer.time()) and declarations (`double
                // time() const`, an identifier directly before the token)
                // are not the libc entropy call; std::time(...) is.
                const bool member = tpos >= 1 && code[tpos - 1] == '.';
                std::size_t before = tpos;
                while (before > 0 && code[before - 1] == ' ') --before;
                const bool declaration = before > 0 && is_ident_char(code[before - 1]);
                if (after < code.size() && code[after] == '(' && !member && !declaration) {
                    add(li, "R1", "error",
                        "`time()` call — wall-clock values must never reach seeds or "
                        "trajectories; use an explicit seed");
                }
            }
            // chrono feeding a seed/Rng on the same line: the one chrono use
            // that breaks reproducibility.  Plain elapsed-time measurement
            // (steady_clock around a loop) is fine and not flagged.
            if (code.find("chrono") != std::string::npos &&
                (has_token(code, "seed") || has_token(code, "Rng"))) {
                add(li, "R1", "error",
                    "chrono-derived seed — seeds must be explicit inputs, never clocks");
            }
        }

        // --- R2: unordered-container iteration ------------------------
        {
            const std::size_t for_pos = find_token(code, "for");
            std::string iterated;
            if (for_pos != std::string_view::npos) {
                // Range-for: `for (decl : range)` — extract the first
                // identifier of the range expression.
                const std::size_t colon = code.find(" : ", for_pos);
                if (colon != std::string::npos) {
                    std::size_t i = colon + 3;
                    while (i < code.size() && !is_ident_char(code[i])) ++i;
                    std::size_t start = i;
                    while (i < code.size() && is_ident_char(code[i])) ++i;
                    iterated = code.substr(start, i - start);
                }
            }
            const bool range_hit = !iterated.empty() && unordered_names.count(iterated);
            std::string begin_hit;
            for (const std::string& name : unordered_names) {
                const std::size_t npos_ = find_token(code, name);
                if (npos_ == std::string_view::npos) continue;
                const std::string_view rest = std::string_view(code).substr(npos_ + name.size());
                if (rest.starts_with(".begin()") || rest.starts_with(".cbegin()") ||
                    rest.starts_with("->begin()") || rest.starts_with("->cbegin()"))
                    begin_hit = name;
            }
            if (range_hit || !begin_hit.empty()) {
                const std::string name = range_hit ? iterated : begin_hit;
                if (path_class == PathClass::trajectory) {
                    add(li, "R2", "error",
                        "iteration over unordered container `" + name +
                            "` on a trajectory-affecting path — hash order is "
                            "implementation-defined; extract and sort, or restructure");
                } else {
                    add(li, "R2", "review",
                        "iteration over unordered container `" + name +
                            "` — prove the consumer order-insensitive and suppress with "
                            "the proof, or extract and sort");
                }
            }
        }

        // --- R3: float/double in serialized state ---------------------
        // Only direct member declarations count: depth exactly one inside
        // the marked struct on both ends of the line, and no parentheses
        // (method signatures and bodies mention double legitimately — the
        // rule is about the *persisted layout*).
        if (in_serialized && depth_before == serialized_until_depth + 1 &&
            brace_depth == serialized_until_depth + 1 &&
            code.find('(') == std::string::npos &&
            (has_token(code, "float") || has_token(code, "double"))) {
            add(li, "R3", "error",
                "floating-point member in serialized-state struct — serialized state must "
                "round-trip bit-exactly; encode as fixed-width integer images or suppress "
                "with the exact-encoding argument");
        }

        // --- R4: unchecked narrowing from __int128 ---------------------
        if (!has_token(code, "checked_narrow")) {
            std::size_t cast = 0;
            while ((cast = code.find("static_cast<", cast)) != std::string::npos) {
                const std::size_t close = code.find('>', cast);
                if (close == std::string::npos) break;
                const std::string target = code.substr(cast + 12, close - cast - 12);
                cast = close;
                if (target.find("__int128") != std::string::npos) continue;  // widening
                bool narrow_target = false;
                for (const std::string& t : narrow_cast_targets()) {
                    std::string trimmed = target;
                    trimmed.erase(std::remove(trimmed.begin(), trimmed.end(), ' '),
                                  trimmed.end());
                    std::string bare = t;
                    bare.erase(std::remove(bare.begin(), bare.end(), ' '), bare.end());
                    if (trimmed == bare || trimmed == "const" + bare) {
                        narrow_target = true;
                        break;
                    }
                }
                if (!narrow_target) continue;
                // Argument expression: up to the matching close paren —
                // line-local approximation: the rest of the line.
                const std::string_view arg = std::string_view(code).substr(close);
                bool from_128 = find_token(arg, "__int128") != std::string_view::npos;
                for (const std::string& name : int128_names) {
                    if (from_128) break;
                    if (find_token(arg, name) != std::string_view::npos) from_128 = true;
                }
                if (from_128) {
                    add(li, "R4", "error",
                        "narrowing static_cast from __int128 — use checked_narrow<T>() "
                        "(support/check.hpp) or suppress with the range argument");
                }
            }
        }

        // --- R5: unvalidated parse sites -------------------------------
        if (!in_validated_parser) {
            for (const std::string& token : parse_tokens()) {
                const std::size_t p = find_token(code, token);
                if (p == std::string_view::npos) continue;
                // Must look like a call.
                std::size_t after = p + token.size();
                while (after < code.size() && code[after] == ' ') ++after;
                if (after >= code.size() || code[after] != '(') continue;
                add(li, "R5", "error",
                    "raw parse call `" + token +
                        "` outside a validated-parser helper — every CLI/file input must "
                        "be fully validated (end pointer / full-token / typed error)");
            }
        }

        // --- R6: side effects inside assertion arguments ----------------
        // Single left-to-right scan: outside an assertion, jump to the next
        // assertion-macro call; inside one, track paren depth (so nested
        // calls and commas are handled) and flag mutating operators until
        // the argument list closes.  `assert_depth`/`assert_macro` persist
        // across lines, so multi-line argument lists stay covered.
        {
            static const std::vector<std::string> kAssertMacros = {
                "assert", "PPSC_DASSERT", "PPSC_CHECK", "PPSC_CHECK_MSG"};
            std::size_t i = 0;
            while (i < code.size()) {
                if (assert_depth == 0) {
                    // Earliest assertion call at or after i (token followed,
                    // modulo spaces, by an opening paren — `#define
                    // PPSC_CHECK(cond)` also matches, harmlessly: its
                    // parameter list contains no operators).
                    std::size_t best = std::string_view::npos;
                    std::size_t best_open = 0;
                    std::string which;
                    for (const std::string& macro : kAssertMacros) {
                        const std::size_t pos = find_token(code, macro, i);
                        if (pos == std::string_view::npos || pos >= best) continue;
                        std::size_t after = pos + macro.size();
                        while (after < code.size() && code[after] == ' ') ++after;
                        if (after >= code.size() || code[after] != '(') continue;
                        best = pos;
                        best_open = after;
                        which = macro;
                    }
                    if (best == std::string_view::npos) break;
                    assert_macro = which;
                    assert_depth = 1;
                    i = best_open + 1;
                    continue;
                }
                const char c = code[i];
                const char n1 = i + 1 < code.size() ? code[i + 1] : '\0';
                const char n2 = i + 2 < code.size() ? code[i + 2] : '\0';
                const char p = i > 0 ? code[i - 1] : '\0';
                if (c == '(') {
                    ++assert_depth;
                    ++i;
                    continue;
                }
                if (c == ')') {
                    if (--assert_depth == 0) assert_macro.clear();
                    ++i;
                    continue;
                }
                const auto hit = [&](const std::string& what) {
                    add(li, "R6", "error",
                        "side-effecting `" + what + "` inside " + assert_macro +
                            "() — assert/PPSC_DASSERT vanish under NDEBUG and the "
                            "PPSC_CHECK family is contractually side-effect free; hoist "
                            "the mutation out of the assertion");
                };
                if (c == '+' && n1 == '+') {
                    hit("++");
                    i += 2;
                    continue;
                }
                if (c == '-' && n1 == '-') {
                    hit("--");
                    i += 2;
                    continue;
                }
                if ((c == '<' && n1 == '<' && n2 == '=') ||
                    (c == '>' && n1 == '>' && n2 == '=')) {
                    hit(std::string{c, n1, '='});
                    i += 3;
                    continue;
                }
                if (std::string_view("+-*/%&|^").find(c) != std::string_view::npos &&
                    n1 == '=') {
                    hit(std::string{c, '='});
                    i += 2;
                    continue;
                }
                if (c == '=' && n1 != '=' &&
                    std::string_view("=!<>+-*/%&|^").find(p) == std::string_view::npos &&
                    // Lambda default-capture ([=] / [=, &x]) is not a
                    // mutation of program state.
                    p != '[' && n1 != ']') {
                    hit("=");
                }
                ++i;
            }
        }
    }
    return report;
}

// ---------------------------------------------------------------------------
// Driver

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

bool is_source_file(const fs::path& path) {
    const std::string ext = path.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::vector<Finding> lint_paths(const std::vector<std::string>& paths) {
    std::vector<fs::path> files;
    for (const std::string& p : paths) {
        if (fs::is_directory(p)) {
            for (const auto& entry : fs::recursive_directory_iterator(p)) {
                if (entry.is_regular_file() && is_source_file(entry.path()))
                    files.push_back(entry.path());
            }
        } else {
            files.push_back(p);
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    std::vector<Finding> findings;
    for (const fs::path& file : files) {
        const std::vector<Line> lines = split_lines(read_file(file));
        // Same-stem header: members declared in foo.hpp are visible in
        // foo.cpp, so merge its unordered/__int128 identifier sets.
        std::set<std::string> extra_unordered, extra_int128;
        if (file.extension() == ".cpp") {
            fs::path header = file;
            header.replace_extension(".hpp");
            if (fs::exists(header))
                collect_declared_names(split_lines(read_file(header)), extra_unordered,
                                       extra_int128);
        }
        FileReport report =
            lint_file(file.generic_string(), lines, extra_unordered, extra_int128);
        findings.insert(findings.end(), report.findings.begin(), report.findings.end());
    }
    std::sort(findings.begin(), findings.end());
    return findings;
}

// ---------------------------------------------------------------------------
// Self-test: fixture corpus with `// expect(R1)` annotations.

int run_self_test(const std::string& fixture_dir) {
    if (!fs::is_directory(fixture_dir)) {
        std::cerr << "ppsc_lint --self-test: fixture directory not found: " << fixture_dir
                  << "\n";
        return 2;
    }
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(fixture_dir)) {
        if (entry.is_regular_file() && is_source_file(entry.path()))
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        std::cerr << "ppsc_lint --self-test: no fixtures under " << fixture_dir << "\n";
        return 2;
    }

    int failures = 0;
    for (const fs::path& file : files) {
        const std::vector<Line> lines = split_lines(read_file(file));
        // Expected findings: `expect(R1)` comments, possibly several per line.
        // `expect(R)` marks a finding on its own line; `expect-below(R)`
        // marks one on the following line (used where the annotated line
        // itself is a suppression comment, whose reason text must stay
        // free of expect() clauses).
        std::multiset<std::pair<int, std::string>> expected;
        for (std::size_t li = 0; li < lines.size(); ++li) {
            const std::string& comment = lines[li].comment;
            std::size_t pos = 0;
            while ((pos = comment.find("expect(", pos)) != std::string::npos) {
                const std::size_t close = comment.find(')', pos);
                if (close == std::string::npos) break;
                expected.insert({static_cast<int>(li + 1),
                                 comment.substr(pos + 7, close - pos - 7)});
                pos = close + 1;
            }
            pos = 0;
            while ((pos = comment.find("expect-below(", pos)) != std::string::npos) {
                const std::size_t close = comment.find(')', pos);
                if (close == std::string::npos) break;
                expected.insert({static_cast<int>(li + 2),
                                 comment.substr(pos + 13, close - pos - 13)});
                pos = close + 1;
            }
        }
        FileReport report = lint_file(file.generic_string(), lines, {}, {});
        std::multiset<std::pair<int, std::string>> actual;
        for (const Finding& f : report.findings) actual.insert({f.line, f.rule});

        if (expected != actual) {
            ++failures;
            std::cerr << "self-test FAIL: " << file.generic_string() << "\n";
            for (const auto& [line, rule] : expected) {
                if (!actual.count({line, rule}))
                    std::cerr << "  missing expected finding: line " << line << " " << rule
                              << "\n";
            }
            for (const auto& [line, rule] : actual) {
                if (!expected.count({line, rule}))
                    std::cerr << "  unexpected finding: line " << line << " " << rule << "\n";
            }
        }
    }
    if (failures) {
        std::cerr << "ppsc_lint --self-test: " << failures << " fixture(s) failed\n";
        return 1;
    }
    std::cerr << "ppsc_lint --self-test: " << files.size() << " fixtures OK\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string> paths;
    bool self_test = false;
    std::string fixture_dir =
#ifdef PPSC_LINT_FIXTURE_DIR
        PPSC_LINT_FIXTURE_DIR;
#else
        "tools/ppsc_lint/fixtures";
#endif
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") {
            self_test = true;
        } else if (arg == "--fixtures" && i + 1 < argc) {
            fixture_dir = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: ppsc_lint [--self-test [--fixtures DIR]] [path...]\n"
                         "Lints .cpp/.hpp files (recursing into directories) against the\n"
                         "ppsc determinism rules R1-R6.  Exit 1 iff findings exist.\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "ppsc_lint: unknown flag " << arg << "\n";
            return 2;
        } else {
            paths.push_back(arg);
        }
    }

    if (self_test) return run_self_test(fixture_dir);

    if (paths.empty()) {
        std::cerr << "ppsc_lint: no paths given (try: ppsc_lint src examples)\n";
        return 2;
    }
    const std::vector<Finding> findings = lint_paths(paths);
    for (const Finding& f : findings) {
        std::cout << f.file << ":" << f.line << ": " << f.rule << " " << f.severity << ": "
                  << f.message << "\n";
    }
    std::cerr << "ppsc_lint: " << findings.size() << " finding(s)\n";
    return findings.empty() ? 0 : 1;
}
