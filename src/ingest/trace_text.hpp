// Strict field parsing for the third-party trace dialect.
//
// Every src/ingest adapter reads text formats published by third parties;
// ingest/line_source.hpp hands them the payload lines (comments, blanks and
// CRs already gone) with their physical line numbers, and these helpers
// split and parse the fields: numbers must parse full-string and finite,
// and every diagnostic carries the physical 1-based line number of the
// offending line.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/sim_time.hpp"

namespace wheels::ingest {

/// Split one CSV row on ',': refill `cells` with views into `line` (valid
/// only as long as the underlying buffer).
void split_trace_row(std::string_view line,
                     std::vector<std::string_view>& cells);

/// Full-string strtod with a finiteness check. Throws std::runtime_error
/// "line N: ..." on malformed input (callers prefix their own context).
/// The cell need not be NUL-terminated.
double parse_trace_double(std::string_view cell, std::size_t line);

/// Non-negative integer milliseconds, full-string. Throws like above.
SimMillis parse_trace_time_ms(std::string_view cell, std::size_t line);

/// Throws std::runtime_error{"line N: msg"}.
[[noreturn]] void trace_fail(std::size_t line, const std::string& msg);

}  // namespace wheels::ingest
