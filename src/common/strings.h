// Small string utilities shared across modules: formatting, splitting, and
// human-readable units for bench output.

#ifndef FLOR_COMMON_STRINGS_H_
#define FLOR_COMMON_STRINGS_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace flor {

/// Concatenates the stream representation of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  ((os << args), ...);
  return os.str();
}

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits on a single character; keeps empty fields.
std::vector<std::string> StrSplit(const std::string& s, char sep);

/// Joins with a separator.
std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep);

bool StartsWith(const std::string& s, const std::string& prefix);
bool EndsWith(const std::string& s, const std::string& suffix);

/// Strict numeric parsing for durable formats (manifests, worker result
/// files): the whole string must be consumed, be non-empty, and be in
/// range — the permissive strto* defaults (garbage parses as 0) would
/// silently turn a truncated record into a plausible-looking empty one.
/// ParseF64 accepts everything strtod does, including the "%a" hexfloat
/// form meta blocks write (serialize/sections.h), so doubles round-trip
/// bit-exactly.
bool ParseI64(const std::string& s, int64_t* out);
bool ParseI32(const std::string& s, int32_t* out);
bool ParseU64(const std::string& s, uint64_t* out);
bool ParseF64(const std::string& s, double* out);

/// "51 MB", "1.1 GB", "705 MB" — matches the paper's table style.
std::string HumanBytes(uint64_t bytes);

/// "1.02 h", "3.4 min", "12.5 s", "340 ms" — for bench tables.
std::string HumanSeconds(double seconds);

/// "$ 0.33" style for the cost tables.
std::string HumanDollars(double dollars);

}  // namespace flor

#endif  // FLOR_COMMON_STRINGS_H_
