// Validated environment-variable parsing for the WHEELS_* knobs.
//
// The original knob readers used atoi/atof, which silently turn "abc" into 0
// and saturate overflow into garbage — a malformed WHEELS_THREADS fell back
// to auto without a word. These helpers do full-string, range-checked
// parsing. Callers still apply their own semantic range checks (e.g.
// threads >= 1). Every knob reader that drops a value and keeps its default
// says so through ignore_env, so a typo'd knob is loud and counted instead
// of silently ignored.
#pragma once

#include <optional>
#include <string_view>

namespace wheels::core {

/// Report that knob `name` is set but ignored: prints "[wheels] ignoring
/// NAME=VALUE: expected <expected>" on stderr and adds 1 to the
/// deterministic counter config.ignored, so WHEELS_METRICS_OUT shows that a
/// knob was dropped. Each (name, value) pair is reported once per process,
/// however often its knob is read.
void ignore_env(const char* name, std::string_view expected);

/// Parse env var `name` as a base-10 integer. Returns nullopt when the
/// variable is unset, and also — after ignore_env — when the value is
/// empty, has trailing junk, or overflows long long.
std::optional<long long> env_int(const char* name);

/// Parse env var `name` as a double, with the same full-string and range
/// validation (ignore_env + nullopt on malformed or overflowing input).
std::optional<double> env_double(const char* name);

}  // namespace wheels::core
