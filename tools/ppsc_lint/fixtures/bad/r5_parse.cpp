// Fixture: raw parse calls outside a validated-parser helper.
// ppsc-lint: pretend(src/core/parse_bad.cpp)
#include <charconv>
#include <cstdlib>
#include <string>

long parse_sloppy(const std::string& text) {
    long a = std::atol(text.c_str());          // expect(R5)
    long b = std::strtol(text.c_str(), nullptr, 10);  // expect(R5)
    long c = std::stol(text);                  // expect(R5)
    std::from_chars(text.data(), text.data() + text.size(), c);  // expect(R5)
    return a + b + c;
}
