// Minimal JSON document model for the experiment subsystem's artifacts.
//
// The sweep engine both *writes* result artifacts and *reads* them back
// (`artifact_from_json`, and `latdiv-report`'s comparator in
// exp/compare.hpp), so it needs a parser as well as a serialiser.  The repo deliberately has no external
// dependencies beyond the toolchain; this is a small, strict JSON
// implementation sized to the artifact schema rather than a general
// library.
//
// Determinism contract: serialisation is byte-deterministic.  Objects
// preserve insertion order (they are vectors of pairs, not hash maps),
// and numbers are rendered with the shortest decimal form that parses
// back to the identical double — so two runs that produce bit-identical
// values produce bit-identical artifact files.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace latdiv::exp {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}                // NOLINT
  JsonValue(double n) : kind_(Kind::kNumber), num_(n) {}             // NOLINT
  JsonValue(std::uint64_t n)                                         // NOLINT
      : kind_(Kind::kNumber), num_(static_cast<double>(n)) {}
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT
  JsonValue(const char* s) : kind_(Kind::kString), str_(s) {}        // NOLINT
  JsonValue(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}    // NOLINT
  JsonValue(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}  // NOLINT

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }

  // Typed accessors; throw std::runtime_error on a kind mismatch so that
  // malformed artifacts surface as clean errors, not UB.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Object member lookup; throws std::runtime_error when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  /// Append a member to an object under construction.
  void set(std::string key, JsonValue value);
  /// Append an element to an array under construction.
  void push_back(JsonValue value);

  /// Parse a complete JSON document (throws std::runtime_error with a
  /// byte offset on malformed input or trailing garbage).
  static JsonValue parse(std::string_view text);

  /// Serialise with 2-space indentation and a trailing newline.
  [[nodiscard]] std::string dump() const;

 private:
  void dump_to(std::string& out, int indent) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Shortest decimal rendering of `v` that strtod()s back to the same
/// bits; integers within the exact-double range render without a point.
/// Non-finite values render as "null" (JSON has no inf/nan).
[[nodiscard]] std::string json_number(double v);

/// `s` with JSON string escapes applied, without surrounding quotes.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace latdiv::exp
