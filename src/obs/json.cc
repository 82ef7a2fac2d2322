#include "obs/json.h"

#include <cctype>
#include <cstdlib>

namespace dcfs::obs::json {
namespace {

constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Value> run() {
    std::optional<Value> value = parse_value(0);
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return value;
  }

 private:
  void fail(std::string_view message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = std::string(message) + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  std::optional<Value> parse_value(std::size_t depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"': {
        std::optional<std::string> s = parse_string();
        if (!s) return std::nullopt;
        return Value(std::move(*s));
      }
      case 't':
        if (consume_literal("true")) return Value(true);
        break;
      case 'f':
        if (consume_literal("false")) return Value(false);
        break;
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        break;
      default:
        return parse_number();
    }
    fail("invalid value");
    return std::nullopt;
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number");
      return std::nullopt;
    }
    const std::string digits(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(digits.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("invalid number");
      return std::nullopt;
    }
    return Value(d);
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
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
              return std::nullopt;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences — fine for validation use).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("invalid escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Value> parse_array(std::size_t depth) {
    consume('[');
    Array items;
    skip_ws();
    if (consume(']')) return std::make_optional<Value>(std::move(items));
    while (true) {
      std::optional<Value> item = parse_value(depth + 1);
      if (!item) return std::nullopt;
      items.push_back(std::move(*item));
      skip_ws();
      if (consume(']')) return std::make_optional<Value>(std::move(items));
      if (!consume(',')) {
        fail("expected ',' or ']' in array");
        return std::nullopt;
      }
    }
  }

  std::optional<Value> parse_object(std::size_t depth) {
    consume('{');
    Object members;
    skip_ws();
    if (consume('}')) return std::make_optional<Value>(std::move(members));
    while (true) {
      skip_ws();
      std::optional<std::string> key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' in object");
        return std::nullopt;
      }
      std::optional<Value> value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      members.emplace(std::move(*key), std::move(*value));
      skip_ws();
      if (consume('}')) return std::make_optional<Value>(std::move(members));
      if (!consume(',')) {
        fail("expected ',' or '}' in object");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  const Object& object = as_object();
  const auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  Parser parser(text, error);
  return parser.run();
}

}  // namespace dcfs::obs::json
