#include "analyze/certificate.hpp"

#include <sstream>
#include <stdexcept>

#include "support/parse.hpp"

namespace ppsc::analyze {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
    throw std::invalid_argument("certificate parse error, line " + std::to_string(line) + ": " +
                                message);
}

const char* kind_name(CertificateKind kind) {
    switch (kind) {
        case CertificateKind::invariant: return "invariant";
        case CertificateKind::closure: return "closure";
        case CertificateKind::dead: return "dead";
        case CertificateKind::consensus: return "consensus";
    }
    PPSC_UNREACHABLE();
}

/// The whole token as an Int (support/parse.hpp), else a typed fail().
template <typename Int = std::int64_t>
Int parse_int(const std::string& token, std::size_t line) {
    const ParsedInt<Int> parsed = parse_integer<Int>(token);
    if (parsed.status == ParseIntStatus::not_an_integer)
        fail(line, "expected an integer, got '" + token + "'");
    if (!parsed.ok()) fail(line, "integer out of range: '" + token + "'");
    return parsed.value;
}

}  // namespace

std::vector<bool> claimed_unreachable(const Certificate& certificate, const Protocol& protocol) {
    const std::size_t num_states = protocol.num_states();
    std::vector<bool> unreachable(num_states, false);
    if (certificate.kind == CertificateKind::invariant) {
        // v·C ≤ v·IC(m) = v·L on every reachable configuration (v vanishes
        // on the input states), so v(q) > v·L pins state q empty forever.
        // __int128 keeps the leader dot product exact for any int64 data.
        __int128 initial = 0;
        for (std::size_t q = 0; q < num_states && q < certificate.coefficients.size(); ++q)
            initial += static_cast<__int128>(certificate.coefficients[q]) *
                       static_cast<__int128>(protocol.leaders()[static_cast<StateId>(q)]);
        for (std::size_t q = 0; q < num_states && q < certificate.coefficients.size(); ++q)
            unreachable[q] = static_cast<__int128>(certificate.coefficients[q]) > initial;
    } else if (certificate.kind == CertificateKind::closure) {
        for (std::size_t q = 0; q < num_states && q < certificate.inside.size(); ++q)
            unreachable[q] = !certificate.inside[q];
    }
    return unreachable;
}

std::string format_certificates(std::span<const Certificate> certificates) {
    std::ostringstream os;
    for (const Certificate& c : certificates) {
        os << "certificate " << kind_name(c.kind) << '\n';
        switch (c.kind) {
            case CertificateKind::invariant: {
                os << "coeffs";
                for (const std::int64_t v : c.coefficients) os << ' ' << v;
                os << '\n';
                break;
            }
            case CertificateKind::closure: {
                os << "inside";
                for (const bool in : c.inside) os << ' ' << (in ? 1 : 0);
                os << '\n';
                break;
            }
            case CertificateKind::dead: {
                os << "transition " << c.transition << '\n';
                os << "state " << c.state << '\n';
                break;
            }
            case CertificateKind::consensus: {
                os << "output " << c.output << '\n';
                break;
            }
        }
        if (!c.refs.empty()) {
            os << "refs";
            for (const std::size_t r : c.refs) os << ' ' << r;
            os << '\n';
        }
        os << "end\n";
    }
    return os.str();
}

std::vector<Certificate> parse_certificates(std::string_view text) {
    std::vector<Certificate> certificates;
    std::istringstream input{std::string(text)};
    std::string line;
    std::size_t line_number = 0;
    bool open = false;  // inside a certificate block?
    Certificate current;
    while (std::getline(input, line)) {
        ++line_number;
        std::istringstream is(line);
        std::vector<std::string> tokens;
        std::string token;
        while (is >> token) {
            if (token.front() == '#') break;
            tokens.push_back(token);
        }
        if (tokens.empty()) continue;
        const std::string& keyword = tokens[0];
        if (keyword == "certificate") {
            if (open) fail(line_number, "nested certificate block (missing 'end'?)");
            if (tokens.size() != 2) fail(line_number, "expected: certificate <kind>");
            current = Certificate{};
            if (tokens[1] == "invariant") current.kind = CertificateKind::invariant;
            else if (tokens[1] == "closure") current.kind = CertificateKind::closure;
            else if (tokens[1] == "dead") current.kind = CertificateKind::dead;
            else if (tokens[1] == "consensus") current.kind = CertificateKind::consensus;
            else fail(line_number, "unknown certificate kind '" + tokens[1] + "'");
            open = true;
        } else if (!open) {
            fail(line_number, "expected 'certificate <kind>', got '" + keyword + "'");
        } else if (keyword == "end") {
            if (tokens.size() != 1) fail(line_number, "expected: end");
            certificates.push_back(std::move(current));
            current = Certificate{};
            open = false;
        } else if (keyword == "coeffs") {
            for (std::size_t i = 1; i < tokens.size(); ++i)
                current.coefficients.push_back(parse_int(tokens[i], line_number));
        } else if (keyword == "inside") {
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                const std::int64_t bit = parse_int(tokens[i], line_number);
                if (bit != 0 && bit != 1) fail(line_number, "inside bits must be 0 or 1");
                current.inside.push_back(bit == 1);
            }
        } else if (keyword == "transition") {
            if (tokens.size() != 2) fail(line_number, "expected: transition <id>");
            current.transition = parse_int<TransitionId>(tokens[1], line_number);
        } else if (keyword == "state") {
            if (tokens.size() != 2) fail(line_number, "expected: state <id>");
            current.state = parse_int<StateId>(tokens[1], line_number);
        } else if (keyword == "output") {
            if (tokens.size() != 2) fail(line_number, "expected: output <0|1>");
            const std::int64_t b = parse_int(tokens[1], line_number);
            if (b != 0 && b != 1) fail(line_number, "output must be 0 or 1");
            current.output = static_cast<int>(b);
        } else if (keyword == "refs") {
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                const std::int64_t r = parse_int(tokens[i], line_number);
                if (r < 0) fail(line_number, "refs must be non-negative");
                current.refs.push_back(static_cast<std::size_t>(r));
            }
        } else {
            fail(line_number, "unknown keyword '" + keyword + "'");
        }
    }
    if (open) fail(line_number, "unterminated certificate block (missing 'end')");
    return certificates;
}

}  // namespace ppsc::analyze
