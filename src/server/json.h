#ifndef ACQUIRE_SERVER_JSON_H_
#define ACQUIRE_SERVER_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace acquire {

/// Minimal JSON value for the server's newline-delimited protocol — the
/// container ships no JSON dependency, and the protocol needs only the
/// RFC 8259 core: null / bool / number / string / array / object, strict
/// parsing (ParseError with byte offsets on malformed input) and compact
/// serialization. Numbers are doubles, matching the engine's value domain;
/// integral doubles print without a fraction so ids and counters round-trip
/// readably.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject, kRaw };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();
  /// Already-serialized JSON (one Dump() line), spliced into Dump() output
  /// verbatim. Parse never produces one.
  static JsonValue Raw(std::string dumped);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; meaningful only for the matching kind (asserts in
  /// debug builds, defaults otherwise).
  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }

  /// Object access. Insertion order is preserved on serialization.
  /// Get returns nullptr when `key` is absent (or this is not an object).
  const JsonValue* Get(const std::string& key) const;
  void Set(std::string key, JsonValue value);
  /// Object members in insertion order (empty for non-objects); lets tests
  /// compare two protocol replies field-by-field (e.g. modulo "id").
  const std::vector<std::pair<std::string, JsonValue>>& Members() const {
    return members_;
  }
  size_t size() const {
    return kind_ == Kind::kArray ? array_.size() : members_.size();
  }

  /// Array append.
  void Append(JsonValue value);

  /// Convenience lookups for protocol fields: value of `key` coerced to
  /// the requested type, or `fallback` when absent/mismatched.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  double GetNumber(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Compact single-line serialization (never contains a raw newline, so a
  /// dumped value is always a valid protocol line).
  std::string Dump() const;

  /// Strict parse of exactly one JSON value (trailing non-whitespace is an
  /// error). ParseError with a byte offset on malformed input.
  static Result<JsonValue> Parse(const std::string& text);

 private:
  void DumpTo(std::string* out) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace acquire

#endif  // ACQUIRE_SERVER_JSON_H_
