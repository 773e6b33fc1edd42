// Fixture: parse calls inside a validated-parser helper are the sanctioned
// pattern — the helper checks full-token consumption and throws typed
// errors, so the raw call inside it is the implementation detail.
// ppsc-lint: pretend(src/core/parse_good.cpp)
#include <charconv>
#include <stdexcept>
#include <string>

// ppsc-lint: validated-parser (full-token check below: pos must consume the entire string)
long parse_strict(const std::string& text) {
    std::size_t pos = 0;
    const long value = std::stol(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing junk in '" + text + "'");
    return value;
}

// ppsc-lint: validated-parser (from_chars must succeed and consume the entire string)
long parse_strict_chars(const std::string& text) {
    long value = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size()) throw std::invalid_argument(text);
    return value;
}

long outside_the_helper(const std::string& text) {
    // Calls to the *helper* are of course fine anywhere.
    return parse_strict(text);
}
