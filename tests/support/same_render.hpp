// Byte equality of two rendered artifacts (traces, metrics CSVs), shared
// by the suites that compare renders across thread counts
// (tests/telemetry/telemetry_test.cpp, tests/multicell/deployment_test.cpp).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>

namespace nbmg::test_support {

/// Byte equality of two renders.  On a mismatch it names the first
/// differing line instead of printing gtest's line diff, whose cost is
/// quadratic in the line count.
inline ::testing::AssertionResult same_render(const std::string& got,
                                              const std::string& want) {
    if (got == want) return ::testing::AssertionSuccess();
    const std::size_t at = static_cast<std::size_t>(
        std::mismatch(got.begin(), got.begin() + static_cast<std::ptrdiff_t>(
                                                     std::min(got.size(), want.size())),
                      want.begin())
            .first -
        got.begin());
    const std::size_t line = want.rfind('\n', at == 0 ? 0 : at - 1);
    const std::size_t from = line == std::string::npos || at == 0 ? 0 : line + 1;
    return ::testing::AssertionFailure()
           << got.size() << " bytes vs " << want.size() << " expected; first difference at byte "
           << at << "\n  got:  " << got.substr(from, 160) << "\n  want: " << want.substr(from, 160);
}

}  // namespace nbmg::test_support
