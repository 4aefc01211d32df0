#include "ingest/trace_text.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace wheels::ingest {

void split_trace_row(std::string_view line,
                     std::vector<std::string_view>& cells) {
  cells.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      cells.push_back(line.substr(start));
      return;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

namespace {

// strtod/strtoll need NUL-terminated input; views into a read block are
// not. Numeric cells are short, so a stack copy keeps the exact classic
// parsing semantics (sign, hex floats, ERANGE) without heap traffic.
template <typename Fn>
auto with_cstr(std::string_view cell, Fn&& fn) {
  char stack[64];
  if (cell.size() < sizeof(stack)) {
    std::memcpy(stack, cell.data(), cell.size());
    stack[cell.size()] = '\0';
    return fn(stack);
  }
  const std::string heap{cell};
  return fn(heap.c_str());
}

}  // namespace

double parse_trace_double(std::string_view cell, std::size_t line) {
  if (cell.empty()) trace_fail(line, "empty numeric field");
  return with_cstr(cell, [&](const char* c_str) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(c_str, &end);
    if (end != c_str + cell.size()) {
      trace_fail(line, "malformed number '" + std::string{cell} + "'");
    }
    if (errno == ERANGE || !std::isfinite(v)) {
      trace_fail(line, "non-finite number '" + std::string{cell} + "'");
    }
    return v;
  });
}

SimMillis parse_trace_time_ms(std::string_view cell, std::size_t line) {
  if (cell.empty()) trace_fail(line, "empty time field");
  return with_cstr(cell, [&](const char* c_str) {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(c_str, &end, 10);
    if (end != c_str + cell.size() || errno == ERANGE) {
      trace_fail(line, "malformed time '" + std::string{cell} + "'");
    }
    if (v < 0) trace_fail(line, "negative time '" + std::string{cell} + "'");
    return static_cast<SimMillis>(v);
  });
}

void trace_fail(std::size_t line, const std::string& msg) {
  throw std::runtime_error{"line " + std::to_string(line) + ": " + msg};
}

}  // namespace wheels::ingest
