#ifndef ISUM_COMMON_STRING_UTIL_H_
#define ISUM_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace isum {

/// Splits `text` on `sep`, keeping empty tokens.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

/// ASCII lower-case copy.
std::string ToLower(std::string_view text);

/// ASCII upper-case copy.
std::string ToUpper(std::string_view text);

/// ASCII lower-case of `c`; other bytes pass through. Names and keywords
/// fold case in ASCII only (the C locale's rule), never through the locale.
inline char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Case-insensitive ASCII equality.
inline bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiLower(a[i]) != AsciiLower(b[i])) return false;
  }
  return true;
}

/// Hash and equality ignoring ASCII case, for maps keyed by SQL names. Both
/// are transparent, so a lookup by std::string_view neither copies nor
/// lower-cases the probe.
struct CaseInsensitiveHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const;
};
struct CaseInsensitiveEqual {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return EqualsIgnoreCase(a, b);
  }
};

/// A string-keyed map whose lookups ignore ASCII case.
template <typename V>
using CaseInsensitiveMap =
    std::unordered_map<std::string, V, CaseInsensitiveHash, CaseInsensitiveEqual>;

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace isum

#endif  // ISUM_COMMON_STRING_UTIL_H_
