// Minimal JSON reader for the repo's own machine-readable outputs
// (BENCH_*.json reports, Chrome trace dumps, scenario specs).
// Recursive-descent, whole document in memory, throws
// std::runtime_error naming the line, column and byte offset on
// malformed input, duplicate object keys, or nesting deeper than 256
// levels (the bound keeps hostile input off the stack). Deliberately
// small: no streaming, no writer (the exporters format by hand), and
// numbers are always doubles — exactly what the bench reporter emits.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace roads::util {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
// std::map keeps object iteration deterministic for tests.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double v) : type_(Type::kNumber), number_(v) {}
  explicit JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a)
      : type_(Type::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}
  explicit JsonValue(JsonObject o)
      : type_(Type::kObject),
        object_(std::make_shared<JsonObject>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::runtime_error on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Object member that must exist; throws otherwise.
  const JsonValue& at(const std::string& key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

/// Parses a complete JSON document (one top-level value, trailing
/// whitespace allowed). Throws std::runtime_error naming the line,
/// column and byte offset of the first error; a repeated object key
/// is an error, not last-wins.
JsonValue parse_json(const std::string& text);

/// Reads and parses a JSON file; throws std::runtime_error when the
/// file cannot be opened or does not parse.
JsonValue parse_json_file(const std::string& path);

}  // namespace roads::util
