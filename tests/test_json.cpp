// core::json's string codec: escape() and Doc::parse invert each other on
// any byte string, and a malformed escape fails with its line. A number
// that overflows a double fails with its line too.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/json.hpp"

namespace wheels::core::json {
namespace {

std::string parsed_string(const std::string& literal) {
  return Doc{"json"}.parse(literal).text;
}

std::string error_of(const std::string& text) {
  try {
    Doc{"json"}.parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "<no error>";
}

TEST(Json, StringEscapesRoundTrip) {
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls.push_back(static_cast<char>(c));
  const std::string cases[] = {
      controls, "a \"quoted\" back\\slash", "dir\nname",
      "Z\xc3\xbcrich \xe2\x86\x92 \xe6\x9d\xb1\xe4\xba\xac \xf0\x9f\x9a\x97"};
  for (const std::string& s : cases) {
    const std::string escaped = escape(s);
    for (const char c : escaped) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << escaped;
    }
    EXPECT_EQ(parsed_string('"' + escaped + '"'), s) << escaped;
  }
  EXPECT_EQ(escape("\n\r\t\b\f\x01\x1f"), R"(\n\r\t\b\f\u0001\u001f)");

  // Escapes escape() never writes still decode: \/, \uXXXX, and a
  // surrogate pair to the UTF-8 bytes of its code point.
  EXPECT_EQ(parsed_string(R"("\u0041\/\u00fc")"), "A/\xc3\xbc");
  EXPECT_EQ(parsed_string(R"("\ud83d\ude97")"), "\xf0\x9f\x9a\x97");

  EXPECT_EQ(error_of("\n\"\\x\""), "json: line 2: unknown escape '\\x'");
  EXPECT_EQ(error_of("\n\n\"\\ud800\""),
            "json: line 3: lone surrogate in \\u escape");
  EXPECT_EQ(error_of(R"("\udc00\ud800")"),
            "json: line 1: lone surrogate in \\u escape");
  EXPECT_EQ(error_of(R"("\u00g1")"),
            "json: line 1: malformed \\u escape (expected 4 hex digits)");
  EXPECT_EQ(error_of(R"("\u12)"),
            "json: line 1: malformed \\u escape (expected 4 hex digits)");
}

TEST(Json, OverflowingNumberFailsWithItsLine) {
  EXPECT_EQ(error_of("[1,\n1e999]"),
            "json: line 2: number out of range '1e999'");
  EXPECT_EQ(error_of("-1e400"), "json: line 1: number out of range '-1e400'");
  EXPECT_EQ(Doc{"json"}.parse("1.7976931348623157e308").number,
            1.7976931348623157e308);
}

}  // namespace
}  // namespace wheels::core::json
