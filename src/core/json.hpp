// A strict line-tracking recursive-descent JSON reader, shared by every
// subsystem that speaks newline-delimited or whole-file JSON (synth
// profiles, the wheelsd wire protocol, the result-cache index).
//
// The contract every user relies on: parsing never guesses. A malformed
// document, a missing or mistyped key, trailing content — each fails with
// "<prefix>: line N: <what>", N the 1-based line the offending token starts
// on, so a hand-edited profile, a torn cache index line, or a buggy client
// is debuggable from the error alone. Doc carries the prefix (and an
// optional first-line offset for parsers that read one line of a larger
// file at a time), so the message format cannot drift between callers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wheels::core::json {

/// One parsed JSON value. `line` is the 1-based line its first token starts
/// on (offset by the owning Doc's first_line).
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  int line = 0;
  bool boolean = false;
  double number = 0.0;
  std::string text;  // String; Number: the token as written
  std::vector<Value> items;                      // Array
  std::vector<std::pair<std::string, Value>> keys;  // Object, in input order
};

/// Parse + typed-decode context: every error this object raises is
/// "<prefix>: line N: ...". `first_line` shifts reported line numbers, for
/// callers that parse line K of a larger file as its own document.
class Doc {
 public:
  explicit Doc(std::string prefix, int first_line = 1)
      : prefix_(std::move(prefix)), first_line_(first_line) {}

  const std::string& prefix() const { return prefix_; }

  /// Parse one complete JSON document; trailing non-whitespace fails.
  Value parse(std::string_view text) const;

  /// Throw std::runtime_error{"<prefix>: line N: <msg>"}.
  [[noreturn]] void fail(int line, const std::string& msg) const;

  /// The value under `key`, or nullptr when absent (no error).
  const Value* find(const Value& object, std::string_view key) const;

  /// The value under `key`; fails at the object's line when missing.
  const Value& get(const Value& object, std::string_view key) const;

  /// `v` itself after checking its kind; fails "expected <what>" otherwise.
  const Value& as(const Value& v, Value::Kind kind,
                  const std::string& what) const;

  /// `v` as an exact unsigned 64-bit integer, decoded from the token's
  /// digits, not through `number`. Only plain digits in [0, 2^64 - 1] pass:
  /// a sign, a fraction, an exponent or a larger value fails naming `key`.
  std::uint64_t u64(const Value& v, std::string_view key) const;

  /// Typed key lookups: get + kind check in one step.
  double num(const Value& object, std::string_view key) const;
  std::string str(const Value& object, std::string_view key) const;
  bool flag(const Value& object, std::string_view key) const;

  /// Decode an array of numbers.
  std::vector<double> doubles(const Value& v) const;

 private:
  std::string prefix_;
  int first_line_ = 1;
};

/// Escape `s` for embedding in a JSON string literal: `\"`, `\\`, `\n`,
/// `\r`, `\t`, `\b`, `\f`, and `\u00XX` for every other control character,
/// so the literal stays on one line. Doc::parse decodes it back to `s`, byte
/// for byte; other bytes (UTF-8 included) pass through unchanged.
std::string escape(std::string_view s);

}  // namespace wheels::core::json
