#include "core/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace wheels::core::json {

namespace {

/// The recursive-descent reader behind Doc::parse. Tracks the current line
/// so every token (and so every decode error downstream) can cite it.
class Reader {
 public:
  Reader(std::string_view text, const Doc& doc, int first_line)
      : text_(text), doc_(doc), line_(first_line) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ < text_.size()) doc_.fail(line_, "trailing content after document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) doc_.fail(line_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      doc_.fail(line_, std::string{"expected '"} + c + "', got '" +
                           text_[pos_] + "'");
    }
    ++pos_;
  }

  Value value() {
    const char c = peek();
    Value v;
    v.line = line_;
    switch (c) {
      case '{': return object(v);
      case '[': return array(v);
      case '"':
        v.kind = Value::Kind::String;
        v.text = string();
        return v;
      case 't':
      case 'f':
        v.kind = Value::Kind::Bool;
        v.boolean = c == 't';
        literal(c == 't' ? "true" : "false");
        return v;
      case 'n':
        literal("null");
        return v;
      default: return number(v);
    }
  }

  Value object(Value v) {
    v.kind = Value::Kind::Object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') doc_.fail(line_, "expected a quoted object key");
      std::string key = string();
      expect(':');
      v.keys.emplace_back(std::move(key), value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array(Value v) {
    v.kind = Value::Kind::Array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') doc_.fail(line_, "unterminated string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) doc_.fail(line_, "unterminated escape");
      switch (const char e = text_[pos_++]) {
        case '"':
        case '\\':
        case '/': out.push_back(e); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': put_utf8(out, code_point()); break;
        default:
          doc_.fail(line_, std::string{"unknown escape '\\"} + e + "'");
      }
    }
    doc_.fail(line_, "unterminated string");
  }

  /// The code point of a `\uXXXX` escape whose `\u` was just read; a
  /// surrogate pair spans two escapes.
  std::uint32_t code_point() {
    const std::uint32_t hi = hex4();
    if (hi < 0xd800 || hi > 0xdfff) return hi;
    if (hi <= 0xdbff && text_.substr(pos_, 2) == "\\u") {
      pos_ += 2;
      const std::uint32_t lo = hex4();
      if (lo >= 0xdc00 && lo <= 0xdfff) {
        return 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
      }
    }
    doc_.fail(line_, "lone surrogate in \\u escape");
  }

  std::uint32_t hex4() {
    std::uint32_t v = 0;
    const char* first = text_.data() + pos_;
    const char* last = first + std::min<std::size_t>(4, text_.size() - pos_);
    const auto [end, ec] = std::from_chars(first, last, v, 16);
    if (ec != std::errc{} || end != first + 4) {
      doc_.fail(line_, "malformed \\u escape (expected 4 hex digits)");
    }
    pos_ += 4;
    return v;
  }

  static void put_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
      return;
    }
    const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    constexpr unsigned char kLead[] = {0, 0xc0, 0xe0, 0xf0};
    out.push_back(static_cast<char>(kLead[tail] | (cp >> (6 * tail))));
    for (int i = tail - 1; i >= 0; --i) {
      out.push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f)));
    }
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      doc_.fail(line_,
                "malformed literal (expected '" + std::string{word} + "')");
    }
    pos_ += word.size();
  }

  Value number(Value v) {
    v.kind = Value::Kind::Number;
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    v.text = text_.substr(start, pos_ - start);
    if (v.text.empty()) doc_.fail(line_, "expected a value");
    char* end = nullptr;
    v.number = std::strtod(v.text.c_str(), &end);
    if (end != v.text.c_str() + v.text.size()) {
      doc_.fail(v.line, "malformed number '" + v.text + "'");
    }
    if (std::isinf(v.number)) {
      doc_.fail(v.line, "number out of range '" + v.text + "'");
    }
    return v;
  }

  std::string_view text_;
  const Doc& doc_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

Value Doc::parse(std::string_view text) const {
  return Reader{text, *this, first_line_}.parse();
}

void Doc::fail(int line, const std::string& msg) const {
  throw std::runtime_error{prefix_ + ": line " + std::to_string(line) + ": " +
                           msg};
}

const Value* Doc::find(const Value& object, std::string_view key) const {
  for (const auto& [k, v] : object.keys) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Doc::get(const Value& object, std::string_view key) const {
  if (const Value* v = find(object, key)) return *v;
  fail(object.line, "missing key \"" + std::string{key} + "\"");
}

const Value& Doc::as(const Value& v, Value::Kind kind,
                     const std::string& what) const {
  if (v.kind != kind) fail(v.line, "expected " + what);
  return v;
}

std::uint64_t Doc::u64(const Value& v, std::string_view key) const {
  const std::string name{key};
  const Value& n =
      as(v, Value::Kind::Number, "an integer for \"" + name + "\"");
  std::uint64_t out = 0;
  const char* const last = n.text.data() + n.text.size();
  const auto [end, ec] = std::from_chars(n.text.data(), last, out);
  if (ec != std::errc{} || end != last) {
    fail(n.line, "\"" + name + "\" must be an unsigned 64-bit integer in "
                 "plain digits, got '" + n.text + "'");
  }
  return out;
}

double Doc::num(const Value& object, std::string_view key) const {
  return as(get(object, key), Value::Kind::Number,
            "a number for \"" + std::string{key} + "\"")
      .number;
}

std::string Doc::str(const Value& object, std::string_view key) const {
  return as(get(object, key), Value::Kind::String,
            "a string for \"" + std::string{key} + "\"")
      .text;
}

bool Doc::flag(const Value& object, std::string_view key) const {
  return as(get(object, key), Value::Kind::Bool,
            "a boolean for \"" + std::string{key} + "\"")
      .boolean;
}

std::vector<double> Doc::doubles(const Value& v) const {
  as(v, Value::Kind::Array, "an array of numbers");
  std::vector<double> out;
  out.reserve(v.items.size());
  for (const Value& item : v.items) {
    out.push_back(
        as(item, Value::Kind::Number, "a number in the array").number);
  }
  return out;
}

std::string escape(std::string_view s) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace wheels::core::json
