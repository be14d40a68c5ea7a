#include "common/json.h"

#include <charconv>
#include <utility>

#include "common/string_util.h"

namespace isum {

/// Recursive-descent parser over one document. Containers recurse, so
/// depth is bounded by kMaxJsonDepth before the stack is.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    JsonValue value;
    ISUM_RETURN_IF_ERROR(ParseValue(0, &value));
    SkipWhitespace();
    if (!AtEnd()) return Error("trailing bytes after the JSON value");
    return value;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }

  Status Error(const std::string& what) const {
    return Status::ParseError(
        StrFormat("JSON error at byte %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (!AtEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                        text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeDigits() {
    const size_t start = pos_;
    while (!AtEnd() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  Status ParseValue(int depth, JsonValue* out) {
    SkipWhitespace();
    if (AtEnd()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth + 1, out);
      case '[':
        return ParseArray(depth + 1, out);
      case '"': {
        std::string s;
        ISUM_RETURN_IF_ERROR(ParseString(&s));
        out->value_ = std::move(s);
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", true, out);
      case 'f':
        return ParseLiteral("false", false, out);
      case 'n':
        return ParseLiteral("null", nullptr, out);
      default:
        return ParseNumber(out);
    }
  }

  template <typename T>
  Status ParseLiteral(std::string_view word, T value, JsonValue* out) {
    if (text_.substr(pos_, word.size()) != word) {
      return Error("invalid literal");
    }
    pos_ += word.size();
    out->value_ = value;
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    Consume('-');
    if (!Consume('0') && !ConsumeDigits()) return Error("invalid value");
    if (Consume('.') && !ConsumeDigits()) {
      return Error("missing digits after the decimal point");
    }
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!ConsumeDigits()) return Error("missing exponent digits");
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const std::from_chars_result result = std::from_chars(first, last, value);
    if (result.ec != std::errc() || result.ptr != last) {
      pos_ = start;
      return Error("number out of range");
    }
    out->value_ = value;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (true) {
      if (AtEnd()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Error("raw control byte in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (AtEnd()) return Error("dangling escape in JSON string");
      const char escape = text_[pos_++];
      constexpr std::string_view kEscapes = "\"\\/nrt";
      constexpr std::string_view kBytes = "\"\\/\n\r\t";
      if (const size_t k = kEscapes.find(escape); k != kEscapes.npos) {
        out->push_back(kBytes[k]);
        continue;
      }
      if (escape != 'u') return Error("unknown escape in JSON string");
      if (text_.size() - pos_ < 4) return Error("truncated \\u escape");
      unsigned code = 0;
      const char* hex = text_.data() + pos_;
      if (std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
        return Error("bad \\u escape");
      }
      if (code > 0x7F) return Error("non-ASCII \\u escape unsupported");
      out->push_back(static_cast<char>(code));
      pos_ += 4;
    }
  }

  Status ParseArray(int depth, JsonValue* out) {
    if (depth > kMaxJsonDepth) return Error("nesting too deep");
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (!Consume(']')) {
      do {
        ISUM_RETURN_IF_ERROR(ParseValue(depth, &items.emplace_back()));
        SkipWhitespace();
      } while (Consume(','));
      if (!Consume(']')) return Error("expected ',' or ']'");
    }
    out->value_ = std::move(items);
    return Status::OK();
  }

  Status ParseObject(int depth, JsonValue* out) {
    if (depth > kMaxJsonDepth) return Error("nesting too deep");
    ++pos_;  // '{'
    std::vector<JsonValue::Member> members;
    SkipWhitespace();
    if (!Consume('}')) {
      do {
        SkipWhitespace();
        if (AtEnd() || text_[pos_] != '"') return Error("expected a key");
        const size_t key_at = pos_;
        JsonValue::Member& member = members.emplace_back();
        ISUM_RETURN_IF_ERROR(ParseString(&member.key));
        // Linear: every object the repo writes has a handful of members.
        for (size_t i = 0; i + 1 < members.size(); ++i) {
          if (members[i].key == member.key) {
            pos_ = key_at;
            return Error("duplicate key \"" + member.key + "\"");
          }
        }
        SkipWhitespace();
        if (!Consume(':')) return Error("expected ':'");
        ISUM_RETURN_IF_ERROR(ParseValue(depth, &member.value));
        SkipWhitespace();
      } while (Consume(','));
      if (!Consume('}')) return Error("expected ',' or '}'");
    }
    out->value_ = std::move(members);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

double JsonValue::number() const {
  const double* v = std::get_if<double>(&value_);
  return v != nullptr ? *v : 0.0;
}

const std::string& JsonValue::string() const {
  static const std::string* const kEmpty = new std::string();
  const std::string* v = std::get_if<std::string>(&value_);
  return v != nullptr ? *v : *kEmpty;
}

const std::vector<JsonValue>& JsonValue::array() const {
  static const auto* const kEmpty = new std::vector<JsonValue>();
  const auto* v = std::get_if<std::vector<JsonValue>>(&value_);
  return v != nullptr ? *v : *kEmpty;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  static const auto* const kEmpty = new std::vector<Member>();
  const auto* v = std::get_if<std::vector<Member>>(&value_);
  return v != nullptr ? *v : *kEmpty;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const Member& m : members()) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

StatusOr<double> JsonValue::Number(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) {
    return Status::ParseError("missing key '" + std::string(key) + "'");
  }
  if (v->type() != Type::kNumber) {
    return Status::ParseError("non-numeric value for '" + std::string(key) +
                              "'");
  }
  return v->number();
}

StatusOr<std::string> JsonValue::String(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) {
    return Status::ParseError("missing key '" + std::string(key) + "'");
  }
  if (v->type() != Type::kString) {
    return Status::ParseError("non-string value for '" + std::string(key) +
                              "'");
  }
  return v->string();
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace isum
