// The one strict non-negative-decimal parser behind every scenario-layer
// number: command-line flags (cli.hpp), positionals (cli.cpp) and the key
// table's values (keys.cpp) all read integers through parse_u64_in_range
// and differ only in how they report its reason, so a rule change (e.g.
// rejecting a new edge) or a message cannot silently miss one entry point.
// bound_reason words an integer bound the same way for the key table's
// checks, which hold the bounds of a finished spec.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

namespace nbmg::scenario {

/// Why `value` lies outside [lo, hi] ("value must be >= lo" or "value must
/// be <= hi"), or "" inside it: the one wording of an integer bound.
template <std::integral T>
[[nodiscard]] std::string bound_reason(
    T value, std::uint64_t lo,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
    if (std::cmp_less(value, lo)) return "value must be >= " + std::to_string(lo);
    if (std::cmp_greater(value, hi)) return "value must be <= " + std::to_string(hi);
    return {};
}

/// `text` without leading and trailing whitespace.
[[nodiscard]] inline std::string_view trim(std::string_view text) noexcept {
    while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front())) != 0) {
        text.remove_prefix(1);
    }
    while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back())) != 0) {
        text.remove_suffix(1);
    }
    return text;
}

enum class U64ParseError : std::uint8_t {
    none,
    empty,         // ""
    negative,      // leading '-'
    not_decimal,   // non-digit lead (catches ' 5', '+7') or trailing junk
    out_of_range,  // > UINT64_MAX
};

/// Parses `text` as a non-negative decimal integer into `out`.  The whole
/// string must be digits: no sign, no whitespace, no trailing junk.
[[nodiscard]] inline U64ParseError parse_strict_u64(const char* text,
                                                    std::uint64_t& out) noexcept {
    if (*text == '\0') return U64ParseError::empty;
    if (*text == '-') return U64ParseError::negative;
    // strtoull itself skips whitespace and accepts a sign; insist the value
    // starts with a digit so ' -5' or '+7' cannot sneak past.
    if (std::isdigit(static_cast<unsigned char>(*text)) == 0) {
        return U64ParseError::not_decimal;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(text, &end, 10);
    if (errno == ERANGE) return U64ParseError::out_of_range;
    if (end == text || *end != '\0') return U64ParseError::not_decimal;
    out = static_cast<std::uint64_t>(parsed);
    return U64ParseError::none;
}

/// Parses `text` (parse_strict_u64's grammar) as an integer in [lo, hi]
/// into `out`; returns why it cannot, or "" on success.
[[nodiscard]] inline std::string parse_u64_in_range(const char* text, std::uint64_t& out,
                                                    std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t value = 0;
    switch (parse_strict_u64(text, value)) {
        case U64ParseError::none: break;
        case U64ParseError::empty: return "empty value";
        case U64ParseError::negative: return "value must be non-negative";
        case U64ParseError::not_decimal: return "not a decimal integer";
        case U64ParseError::out_of_range: return "value out of range";
    }
    std::string reason = bound_reason(value, lo, hi);
    if (reason.empty()) out = value;
    return reason;
}

enum class DoubleParseError : std::uint8_t {
    none,
    empty,       // ""
    not_number,  // not a full numeric token
    not_finite,  // inf/nan/overflow (a non-finite knob would sail through
                 // range checks — NaN compares false — and blow up deep in
                 // the library)
};

/// Parses `text` as a finite double.  The whole string must be the number:
/// no whitespace, no trailing junk.
[[nodiscard]] inline DoubleParseError parse_strict_double(const char* text,
                                                          double& out) noexcept {
    if (*text == '\0') return DoubleParseError::empty;
    if (std::isspace(static_cast<unsigned char>(*text)) != 0) {
        return DoubleParseError::not_number;  // strtod would skip it
    }
    // strtod accepts C99 hex-float tokens ('0x10' = 16.0, '0x1p3' = 8.0),
    // which the decimal-only grammar of parse_strict_u64 rejects; an 'x'
    // anywhere in the token means it is not a plain decimal number.
    for (const char* c = text; *c != '\0'; ++c) {
        if (*c == 'x' || *c == 'X') return DoubleParseError::not_number;
    }
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(text, &end);
    if (end == text || *end != '\0') return DoubleParseError::not_number;
    if (errno == ERANGE || !std::isfinite(parsed)) {
        return DoubleParseError::not_finite;
    }
    out = parsed;
    return DoubleParseError::none;
}

}  // namespace nbmg::scenario
