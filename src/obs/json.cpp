#include "src/obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mmtag::obs {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr && member->is_number() ? member->as_double()
                                                  : fallback;
}

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  type_ = Type::kObject;
  for (auto& [name, existing] : object_) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::push_back(JsonValue value) {
  type_ = Type::kArray;
  array_.push_back(std::move(value));
  return *this;
}

namespace {

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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

void dump_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Integers in the exactly-representable range print without a fraction
  // (counter values, bucket counts); everything else round-trips via %.17g.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void indent_to(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) *
                 static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: dump_number(out, number_); return;
    case Type::kString: dump_string(out, string_); return;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        if (indent >= 0) indent_to(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      if (indent >= 0 && !array_.empty()) indent_to(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        if (indent >= 0) indent_to(out, indent, depth + 1);
        dump_string(out, object_[i].first);
        out += indent >= 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0 && !object_.empty()) indent_to(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<JsonValue> run() {
    skip_ws();
    JsonValue value;
    if (!parse_value(value)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return value;
  }

 private:
  void fail(const char* message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = std::string(message) + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_literal(const char* literal) {
    const std::size_t len = std::strlen(literal);
    if (text_.substr(pos_, len) == literal) {
      pos_ += len;
      return true;
    }
    fail("invalid literal");
    return false;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) {
      fail("expected '\"'");
      return false;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
              return false;
            }
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs are not
          // combined — the schemas here never emit them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected number");
      return false;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("malformed number");
      return false;
    }
    out = JsonValue(value);
    return true;
  }

  bool parse_array(JsonValue& out) {
    ++pos_;
    out = JsonValue::array();
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue element;
      skip_ws();
      if (!parse_value(element)) return false;
      out.push_back(std::move(element));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) {
        fail("expected ',' or ']'");
        return false;
      }
    }
  }

  bool parse_object(JsonValue& out) {
    ++pos_;
    out = JsonValue::object();
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':'");
        return false;
      }
      skip_ws();
      JsonValue member;
      if (!parse_value(member)) return false;
      out.set(std::move(key), std::move(member));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) {
        fail("expected ',' or '}'");
        return false;
      }
    }
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    switch (text_[pos_]) {
      case 'n':
        if (!parse_literal("null")) return false;
        out = JsonValue();
        return true;
      case 't':
        if (!parse_literal("true")) return false;
        out = JsonValue(true);
        return true;
      case 'f':
        if (!parse_literal("false")) return false;
        out = JsonValue(false);
        return true;
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue(std::move(s));
        return true;
      }
      case '[':
      case '{': {
        if (depth_ == JsonValue::kMaxParseDepth) {
          fail("nesting too deep");
          return false;
        }
        ++depth_;
        const bool ok =
            text_[pos_] == '[' ? parse_array(out) : parse_object(out);
        --depth_;
        return ok;
      }
      default:
        return parse_number(out);
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< Arrays and objects open at pos_.
};

}  // namespace

std::optional<JsonValue> JsonValue::parse(std::string_view text,
                                          std::string* error) {
  if (error != nullptr) error->clear();
  return Parser(text, error).run();
}

}  // namespace mmtag::obs
