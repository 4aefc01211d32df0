#include "core/json.hpp"

#include <charconv>
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
      if (c == '\\') {
        if (pos_ >= text_.size()) doc_.fail(line_, "unterminated escape");
        out.push_back(text_[pos_++]);
      } else {
        out.push_back(c);
      }
    }
    doc_.fail(line_, "unterminated string");
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
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace wheels::core::json
