// Time handling for the simulated campaign.
//
// Two clocks exist, exactly as in the real measurement pipeline:
//  - SimMillis: milliseconds since the campaign started (the simulator's
//    internal clock; monotone, timezone-free).
//  - UnixMillis: milliseconds since the Unix epoch in UTC (what log files
//    record, after applying the writer's UTC offset).
//
// The paper's challenge C2 — app logs in UTC or local time, XCAL .drm files
// named in local time but *content*-stamped in EDT, four timezones crossed —
// is reproduced faithfully by `measure::LogSynchronizer`, which leans on the
// civil-time conversions implemented here (Howard Hinnant's algorithms, no
// locale or tzdata dependency).
#pragma once

#include <cstdint>
#include <string>

namespace wheels {

using SimMillis = std::int64_t;
using UnixMillis = std::int64_t;

/// Campaign epoch: 2022-08-08 08:00:00 PDT (= 15:00:00 UTC), the morning the
/// paper's drive left Los Angeles.
UnixMillis campaign_start_unix_ms();

UnixMillis unix_from_sim(SimMillis t);
SimMillis sim_from_unix(UnixMillis t);

/// A civil (calendar) date-time in some unspecified offset.
struct CivilDateTime {
  int year = 1970;
  int month = 1;  // 1..12
  int day = 1;    // 1..31
  int hour = 0;
  int minute = 0;
  int second = 0;
  int millisecond = 0;

  bool operator==(const CivilDateTime&) const = default;
};

/// Days since 1970-01-01 for a civil date (proleptic Gregorian).
std::int64_t days_from_civil(int year, int month, int day);
/// Inverse of days_from_civil.
void civil_from_days(std::int64_t days, int& year, int& month, int& day);

/// Civil date-time seen on a wall clock `utc_offset_minutes` east of UTC.
CivilDateTime civil_from_unix(UnixMillis t, int utc_offset_minutes);
/// Unix ms for a civil date-time recorded at the given UTC offset.
UnixMillis unix_from_civil(const CivilDateTime& c, int utc_offset_minutes);

/// "YYYY-MM-DD HH:MM:SS.mmm", every field zero-padded to its width (the
/// bytes of printf's "%04d-%02d-%02d %02d:%02d:%02d.%03d"). Throws
/// std::invalid_argument when a field does not fit its width (a negative
/// value, a year past 9999), since parse_civil could not read it back.
std::string format_civil(const CivilDateTime& c);
/// Formats `t` as observed at the given offset.
std::string format_timestamp(UnixMillis t, int utc_offset_minutes);
/// Parses exactly "YYYY-MM-DD HH:MM:SS" (19 characters) or the same plus
/// ".mmm" (23), every digit at its fixed position. Throws
/// std::invalid_argument on any other shape (unpadded fields, signs, blanks,
/// trailing text, 1-, 2- or 4-digit milliseconds) and on out-of-range
/// fields.
CivilDateTime parse_civil(const std::string& text);

}  // namespace wheels
