// Minimal JSON document model for the observability subsystem.
//
// The obs layer both writes JSON (BENCH_<name>.json, trace JSONL) and
// reads it back (bench --compare against a baseline, schema validation,
// trace round-trip tests), so it carries its own small value type rather
// than depending on an external library. Scope is deliberately narrow:
// UTF-8 text, doubles for numbers, objects that preserve insertion order
// (deterministic dumps). Good enough for every schema this repo emits;
// not a general-purpose JSON library.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mmtag::obs {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Insertion-ordered: dumps are deterministic and diffable.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool value) : type_(Type::kBool), bool_(value) {}
  JsonValue(double value) : type_(Type::kNumber), number_(value) {}
  JsonValue(int value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(std::int64_t value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(std::uint64_t value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(const char* value) : type_(Type::kString), string_(value) {}
  JsonValue(std::string value)
      : type_(Type::kString), string_(std::move(value)) {}

  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_double() const { return number_; }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const Array& items() const { return array_; }
  [[nodiscard]] const Object& members() const { return object_; }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// find() + number check, with a fallback for absent members.
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback) const;

  /// Append/overwrite an object member (keeps first-insertion position on
  /// overwrite).
  JsonValue& set(std::string key, JsonValue value);
  /// Append an array element.
  JsonValue& push_back(JsonValue value);

  /// Serialize. indent < 0 emits compact single-line JSON; otherwise
  /// pretty-prints with that many spaces per level. Non-finite numbers
  /// emit null (JSON has no inf/nan).
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Arrays and objects nested deeper than this fail to parse ("nesting
  /// too deep") instead of overflowing the parser's stack.
  static constexpr int kMaxParseDepth = 256;

  /// Parse one JSON document. On failure returns nullopt and, when
  /// `error` is non-null, a human-readable reason with offset.
  [[nodiscard]] static std::optional<JsonValue> parse(std::string_view text,
                                                      std::string* error);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace mmtag::obs
