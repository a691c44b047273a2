#include "util/json.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace roads::util {

namespace {

[[noreturn]] void type_error(const char* want, JsonValue::Type got) {
  throw std::runtime_error(std::string("json: expected ") + want +
                           ", got type " +
                           std::to_string(static_cast<int>(got)));
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    auto v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    // Line/column are derived lazily from the byte offset: errors are
    // terminal, so the scan costs nothing on the happy path.
    std::size_t line = 1;
    std::size_t line_start = 0;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        line_start = i + 1;
      }
    }
    const std::size_t column = pos_ - line_start + 1;
    throw std::runtime_error("json: " + what + " at line " +
                             std::to_string(line) + " column " +
                             std::to_string(column) + " (offset " +
                             std::to_string(pos_) + ")");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      // The bound keeps hostile input from overflowing the stack; our
      // own documents nest at most 5 deep.
      if (++depth_ > kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      auto v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    switch (c) {
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject out;
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(out));
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      const std::size_t key_pos = pos_;
      auto key = parse_string();
      if (out.count(key)) {
        pos_ = key_pos;
        fail("duplicate key \"" + key + "\"");
      }
      expect(':');
      out.emplace(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return JsonValue(std::move(out));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray out;
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(out));
    }
    while (true) {
      out.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return JsonValue(std::move(out));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point; surrogate pairs are not
          // recombined (our own exporters never emit them).
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
      }
    }
  }

  JsonValue parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail("invalid number");
    }
    return JsonValue(v);
  }

  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return *array_;
}

const JsonObject& JsonValue::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return *object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto* v = find(key);
  if (v == nullptr) throw std::runtime_error("json: missing key '" + key + "'");
  return *v;
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("json: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_json(buf.str());
}

}  // namespace roads::util
