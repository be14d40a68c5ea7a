#include "common/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdint>
#include <cstdio>

#include "common/hash.h"

namespace isum {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

namespace {

char UpperAscii(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

}  // namespace

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = AsciiLower(c);
  return out;
}

std::string ToUpper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = UpperAscii(c);
  return out;
}

size_t CaseInsensitiveHash::operator()(std::string_view text) const {
  // FNV-1a over the lower-cased bytes.
  uint64_t h = kFnvOffsetBasis;
  for (char c : text) h = FnvStep(h, static_cast<unsigned char>(AsciiLower(c)));
  return static_cast<size_t>(h);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace isum
