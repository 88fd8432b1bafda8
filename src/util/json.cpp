#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace faultstudy::util::json {

namespace {

/// Recursive-descent parser over a string_view with a depth cap (the
/// library's own documents nest a handful of levels; 64 is generous).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> run() {
    skip_ws();
    Value root;
    if (!parse_value(root, 0)) return Err{error_};
    skip_ws();
    if (pos_ != text_.size()) {
      return Err{err("trailing characters after document")};
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
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

  bool parse_object(Value& out, int depth) {
    out.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      Value member;
      if (!parse_value(member, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (peek(',')) continue;
      if (peek('}')) return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Value& out, int depth) {
    out.kind = Value::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    while (true) {
      skip_ws();
      Value element;
      if (!parse_value(element, depth + 1)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (peek(',')) continue;
      if (peek(']')) return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string_value(Value& out) {
    out.kind = Value::Kind::kString;
    return parse_string(out.str);
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
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
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // The library's writers never emit \u escapes for ASCII; decode
          // the basic-plane scalar into UTF-8 so foreign documents parse.
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
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_bool(Value& out) {
    if (text_.substr(pos_, 4) == "true") {
      out.kind = Value::Kind::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out.kind = Value::Kind::kBool;
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    return fail("expected true/false");
  }

  bool parse_null(Value& out) {
    if (text_.substr(pos_, 4) == "null") {
      out.kind = Value::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return fail("expected null");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    bool fractional = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        fractional = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.kind = Value::Kind::kNumber;
    out.number = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') return fail("malformed number");
    if (!fractional) {
      out.integer = std::strtoll(token.c_str(), nullptr, 10);
      out.is_integer = true;
    }
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c) {
    if (peek(c)) return true;
    return fail(std::string("expected '") + c + "'");
  }

  bool fail(std::string message) {
    if (error_.empty()) error_ = err(std::move(message));
    return false;
  }

  std::string err(std::string message) const {
    return message + " at offset " + std::to_string(pos_);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

/// The characters `append_escaped` rewrites.
bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/// The escape table behind `escape` and `append_quoted`.
void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

template <typename Int>
void append_digits(std::string& out, Int value) {
  char digits[20];  // UINT64_MAX: 20 digits; INT64_MIN: a sign and 19
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

}  // namespace

const Value* Value::find(std::string_view key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::int64_t Value::int_or(std::string_view key, std::int64_t fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_number() && v->is_integer ? v->integer
                                                         : fallback;
}

std::string Value::string_or(std::string_view key, std::string fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_string() ? v->str : std::move(fallback);
}

Result<Value> parse(std::string_view text) {
  return Parser(text).run();
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

void append_quoted(std::string& out, std::string_view text) {
  // Copy the clean prefix in one append; escape from the first special
  // character on (the library's exports rarely have one).
  const auto clean = static_cast<std::size_t>(
      std::find_if(text.begin(), text.end(), needs_escape) - text.begin());
  out.push_back('"');
  out.append(text.substr(0, clean));
  append_escaped(out, text.substr(clean));
  out.push_back('"');
}

std::size_t quoted_size(std::string_view text) noexcept {
  std::size_t bytes = 2 + text.size();
  for (const char c : text) {
    if (!needs_escape(c)) continue;
    // A two-byte escape (\" \\ \n \r \t) or a six-byte \u00XX.
    const bool short_escape =
        c == '"' || c == '\\' || c == '\n' || c == '\r' || c == '\t';
    bytes += short_escape ? 1 : 5;
  }
  return bytes;
}

void append_uint(std::string& out, std::uint64_t value) {
  append_digits(out, value);
}

void append_int(std::string& out, std::int64_t value) {
  append_digits(out, value);
}

}  // namespace faultstudy::util::json
