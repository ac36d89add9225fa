#ifndef ACQUIRE_COMMON_STRING_UTIL_H_
#define ACQUIRE_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace acquire {

/// Splits on `sep`, keeping empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII case-insensitive equality (used by the SQL keyword lexer).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a decimal number accepting the paper's K/M/B magnitude suffixes
/// ("0.1M" -> 100000). Rejects trailing garbage.
Result<double> ParseNumberWithSuffix(std::string_view s);

Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// printf-style formatting into a std::string.
std::string StringFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Appends `v` as printf's "%g" (six significant digits, C locale) writes
/// it, inf and nan included, with one std::to_chars call.
void AppendG(double v, std::string* out);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

}  // namespace acquire

#endif  // ACQUIRE_COMMON_STRING_UTIL_H_
