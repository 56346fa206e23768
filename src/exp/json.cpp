#include "exp/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace latdiv::exp {

namespace {

[[noreturn]] void fail(const char* what, std::size_t offset) {
  throw std::runtime_error("json: " + std::string(what) + " at byte " +
                           std::to_string(offset));
}

/// Deepest array/object nesting the parser accepts.  The artifact writers
/// nest at most a handful of levels; the cap keeps the recursion (and the
/// recursive JsonValue destructor) far from the stack limit on hostile
/// input.
constexpr std::size_t kMaxDepth = 256;

/// Recursive-descent parser over a string_view; tracks its offset for
/// error messages.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters", pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character", pos_);
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) fail("nesting too deep", pos_);
        ++depth_;
        JsonValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        return JsonValue();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(obj));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_codepoint(out); break;
        default: fail("bad escape", pos_ - 1);
      }
    }
  }

  void append_codepoint(std::string& out) {
    const std::uint32_t cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDFFF) {
      // The artifacts this parser reads are ASCII; surrogate pairs are
      // out of scope and rejected rather than silently mangled.
      fail("surrogate escapes unsupported", pos_);
    }
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape", pos_);
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("bad hex digit", pos_ - 1);
    }
    return cp;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value", start);
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number", start);
    return JsonValue(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays/objects currently open
};

[[noreturn]] void kind_error(const char* want) {
  throw std::runtime_error(std::string("json: value is not ") + want);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  return num_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return str_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("an array");
  return arr_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) kind_error("an object");
  return obj_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing key '" + std::string(key) + "'");
  }
  return *v;
}

void JsonValue::set(std::string key, JsonValue value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) kind_error("an object");
  obj_.emplace_back(std::move(key), std::move(value));
}

void JsonValue::push_back(JsonValue value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray) kind_error("an array");
  arr_.push_back(std::move(value));
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // Exact integers (the counter metrics) print without a decimal point.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  // Shortest form that round-trips: try increasing precision until
  // strtod() returns the identical bits.  Deterministic for given bits.
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonValue::dump_to(std::string& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += bool_ ? "true" : "false"; return;
    case Kind::kNumber: out += json_number(num_); return;
    case Kind::kString:
      out += '"';
      out += json_escape(str_);
      out += '"';
      return;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        out += pad_in;
        arr_[i].dump_to(out, indent + 1);
        out += i + 1 < arr_.size() ? ",\n" : "\n";
      }
      out += pad;
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        out += pad_in;
        out += '"';
        out += json_escape(obj_[i].first);
        out += "\": ";
        obj_[i].second.dump_to(out, indent + 1);
        out += i + 1 < obj_.size() ? ",\n" : "\n";
      }
      out += pad;
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out, 0);
  out += '\n';
  return out;
}

}  // namespace latdiv::exp
