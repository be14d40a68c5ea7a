#ifndef ISUM_COMMON_JSON_H_
#define ISUM_COMMON_JSON_H_

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace isum {

/// The repo's one JSON reader, plus the escaping helper its writers share.
/// Every format read back — query-store and column-stats JSONL, fault
/// specs, and tracecat's bench/profile records, Chrome traces, metrics
/// JSONL and journals — goes through ParseJson, so members are found by
/// structure, never by searching the text, and no format depends on how
/// its writer lays it out across lines.
///
/// Grammar: RFC 8259 JSON, with these limits.
///  - Strings: raw control bytes (< 0x20) are rejected. The escapes are
///    \" \\ \/ \n \r \t and \uXXXX, and \u must name an ASCII code point
///    (<= 0x7F). \b, \f and non-ASCII \u are errors; bytes >= 0x80 pass
///    through unvalidated.
///  - Numbers: the JSON number grammar; values that overflow a double are
///    errors (so are NaN and infinity, which JSON cannot spell).
///  - Objects: duplicate keys are errors; members keep their text order.
///  - Nesting deeper than kMaxJsonDepth arrays/objects is an error, so
///    hostile input cannot exhaust the stack.
///  - Only whitespace may follow the top-level value.
/// ParseJson reports every error as a ParseError naming the byte offset.

/// Maximum array/object nesting ParseJson accepts. The deepest format the
/// repo writes (a bench trajectory) nests four levels.
inline constexpr int kMaxJsonDepth = 64;

/// One parsed JSON value.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  struct Member;

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_object() const { return type() == Type::kObject; }
  bool is_array() const { return type() == Type::kArray; }

  /// Payload accessors; each is meaningful only for its own type (and
  /// returns 0 / empty otherwise).
  double number() const;
  const std::string& string() const;
  const std::vector<JsonValue>& array() const;
  const std::vector<Member>& members() const;

  /// The member named `key`, or nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Member `key` as a number or string: ParseError when the member is
  /// missing or holds another type.
  StatusOr<double> Number(std::string_view key) const;
  StatusOr<std::string> String(std::string_view key) const;

 private:
  friend class JsonParser;

  // Alternatives in Type order, so index() is the type. A variant keeps a
  // value at 40 bytes: a Chrome trace holds ~10 values per event.
  std::variant<std::nullptr_t, bool, double, std::string,
               std::vector<JsonValue>, std::vector<Member>>
      value_;
};

struct JsonValue::Member {
  std::string key;
  JsonValue value;
};

/// Parses one JSON document (see the grammar above).
StatusOr<JsonValue> ParseJson(std::string_view text);

/// Escapes a raw string for embedding in a JSON string literal: quotes,
/// backslashes and control bytes. ParseJson of the quoted result returns
/// `raw` again.
std::string JsonEscape(const std::string& raw);

}  // namespace isum

#endif  // ISUM_COMMON_JSON_H_
