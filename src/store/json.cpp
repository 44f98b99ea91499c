#include "store/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace latgossip {

const JsonValue* JsonValue::get(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : members_)
    if (name == key) return &value;
  return nullptr;
}

double JsonValue::get_double(std::string_view key, double def) const noexcept {
  const JsonValue* v = get(key);
  return v != nullptr && v->is_number() ? v->as_double() : def;
}

std::string JsonValue::get_string(std::string_view key,
                                  std::string_view def) const {
  const JsonValue* v = get(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string(def);
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.boolean_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_integer(std::int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = static_cast<double>(i);
  v.integer_ = i;
  v.integral_ = true;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

namespace {

/// Recursive-descent parser over a string_view. Depth-capped so a
/// damaged "[[[[…" log line cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue v;
    if (!parse_value(v, 0)) {
      if (error != nullptr)
        *error = error_ + " at byte " + std::to_string(pos_);
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr)
        *error = "trailing garbage at byte " + std::to_string(pos_);
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* what) {
    if (error_.empty()) error_ = what;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': return parse_string_value(out);
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default: return parse_number(out);
    }
  }

  bool parse_literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (text_.compare(pos_, len, lit) != 0) return fail("bad literal");
    pos_ += len;
    return true;
  }

  bool parse_null(JsonValue& out) {
    if (!parse_literal("null")) return false;
    out = JsonValue::make_null();
    return true;
  }

  bool parse_bool(JsonValue& out) {
    if (text_[pos_] == 't') {
      if (!parse_literal("true")) return false;
      out = JsonValue::make_bool(true);
    } else {
      if (!parse_literal("false")) return false;
      out = JsonValue::make_bool(false);
    }
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    if (integral) {
      const long long i = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        out = JsonValue::make_integer(i);
        return true;
      }
      // Out-of-range integer literal: fall through to double.
    }
    errno = 0;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == token.c_str())
      return fail("bad number");
    // 1e999 overflows to infinity, which JSON cannot spell: accepting it
    // would serialize as "inf" and turn a parsed record into damage.
    if (!std::isfinite(d)) return fail("number out of range");
    out = JsonValue::make_number(d);
    return true;
  }

  bool parse_string_raw(std::string& out) {
    if (!eat('"')) return fail("expected string");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point; the exporter only ever
          // emits \u00xx for control bytes, but accept the full plane.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_string_value(JsonValue& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = JsonValue::make_string(std::move(s));
    return true;
  }

  bool parse_array(JsonValue& out, int depth) {
    eat('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (eat(']')) {
      out = JsonValue::make_array(std::move(items));
      return true;
    }
    while (true) {
      JsonValue item;
      if (!parse_value(item, depth + 1)) return false;
      items.push_back(std::move(item));
      skip_ws();
      if (eat(']')) break;
      if (!eat(',')) return fail("expected ',' or ']'");
    }
    out = JsonValue::make_array(std::move(items));
    return true;
  }

  bool parse_object(JsonValue& out, int depth) {
    eat('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (eat('}')) {
      out = JsonValue::make_object(std::move(members));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string_raw(key)) return false;
      skip_ws();
      if (!eat(':')) return fail("expected ':'");
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (eat('}')) break;
      if (!eat(',')) return fail("expected ',' or '}'");
    }
    out = JsonValue::make_object(std::move(members));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

namespace {

void serialize_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void serialize_value(std::string& out, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: {
      char buf[32];
      if (v.is_integer()) {
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v.as_i64()));
        out += buf;
        break;
      }
      std::snprintf(buf, sizeof buf, "%.17g", v.as_double());
      out += buf;
      // Keep a fraction so the token re-parses as a double: "-0" would
      // come back as the integer 0 and drop the sign.
      if (std::strpbrk(buf, ".e") == nullptr) out += ".0";
      break;
    }
    case JsonValue::Kind::kString: serialize_string(out, v.as_string()); break;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out += ',';
        first = false;
        serialize_value(out, item);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [name, value] : v.members()) {
        if (!first) out += ',';
        first = false;
        serialize_string(out, name);
        out += ':';
        serialize_value(out, value);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string json_serialize(const JsonValue& value) {
  std::string out;
  serialize_value(out, value);
  return out;
}

}  // namespace latgossip
