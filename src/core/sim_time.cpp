#include "core/sim_time.hpp"

#include <stdexcept>

namespace wheels {

namespace {
constexpr std::int64_t kMillisPerDay = 86'400'000;
constexpr std::int64_t kMillisPerHour = 3'600'000;
constexpr std::int64_t kMillisPerMinute = 60'000;

/// Writes `value` as exactly `width` decimal digits at `out`; throws when it
/// does not fit, since parse_civil could not read such a field back.
void put_digits(char* out, int value, int width) {
  int limit = 1;
  for (int i = 0; i < width; ++i) limit *= 10;
  if (value < 0 || value >= limit) {
    throw std::invalid_argument{"format_civil: field " +
                                std::to_string(value) + " does not fit " +
                                std::to_string(width) + " digits"};
  }
  for (int i = width - 1; i >= 0; --i) {
    out[i] = static_cast<char>('0' + value % 10);
    value /= 10;
  }
}

/// Reads the `width` digits at `text[pos]`; false if any is not a digit.
bool get_digits(const std::string& text, std::size_t pos, int width,
                int& value) {
  value = 0;
  for (int i = 0; i < width; ++i) {
    const char ch = text[pos + static_cast<std::size_t>(i)];
    if (ch < '0' || ch > '9') return false;
    value = value * 10 + (ch - '0');
  }
  return true;
}

}  // namespace

std::int64_t days_from_civil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2u) / 5u +
      static_cast<unsigned>(d) - 1u;
  const unsigned doe = yoe * 365u + yoe / 4u - yoe / 100u + doy;
  return static_cast<std::int64_t>(era) * 146097 +
         static_cast<std::int64_t>(doe) - 719468;
}

void civil_from_days(std::int64_t z, int& year, int& month, int& day) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp < 10 ? mp + 3 : mp - 9;
  year = static_cast<int>(y + (m <= 2));
  month = static_cast<int>(m);
  day = static_cast<int>(d);
}

UnixMillis campaign_start_unix_ms() {
  return days_from_civil(2022, 8, 8) * kMillisPerDay + 15 * kMillisPerHour;
}

UnixMillis unix_from_sim(SimMillis t) { return campaign_start_unix_ms() + t; }
SimMillis sim_from_unix(UnixMillis t) { return t - campaign_start_unix_ms(); }

CivilDateTime civil_from_unix(UnixMillis t, int utc_offset_minutes) {
  const std::int64_t shifted = t + utc_offset_minutes * kMillisPerMinute;
  std::int64_t days = shifted / kMillisPerDay;
  std::int64_t rem = shifted % kMillisPerDay;
  if (rem < 0) {
    rem += kMillisPerDay;
    --days;
  }
  CivilDateTime c;
  civil_from_days(days, c.year, c.month, c.day);
  c.hour = static_cast<int>(rem / kMillisPerHour);
  rem %= kMillisPerHour;
  c.minute = static_cast<int>(rem / kMillisPerMinute);
  rem %= kMillisPerMinute;
  c.second = static_cast<int>(rem / 1000);
  c.millisecond = static_cast<int>(rem % 1000);
  return c;
}

UnixMillis unix_from_civil(const CivilDateTime& c, int utc_offset_minutes) {
  const std::int64_t days = days_from_civil(c.year, c.month, c.day);
  const std::int64_t local = days * kMillisPerDay + c.hour * kMillisPerHour +
                             c.minute * kMillisPerMinute + c.second * 1000 +
                             c.millisecond;
  return local - utc_offset_minutes * kMillisPerMinute;
}

std::string format_civil(const CivilDateTime& c) {
  char buf[] = "YYYY-MM-DD HH:MM:SS.mmm";
  put_digits(buf, c.year, 4);
  put_digits(buf + 5, c.month, 2);
  put_digits(buf + 8, c.day, 2);
  put_digits(buf + 11, c.hour, 2);
  put_digits(buf + 14, c.minute, 2);
  put_digits(buf + 17, c.second, 2);
  put_digits(buf + 20, c.millisecond, 3);
  return std::string(buf, sizeof(buf) - 1);
}

std::string format_timestamp(UnixMillis t, int utc_offset_minutes) {
  return format_civil(civil_from_unix(t, utc_offset_minutes));
}

CivilDateTime parse_civil(const std::string& text) {
  CivilDateTime c;
  const bool shape_ok =
      (text.size() == 19 || (text.size() == 23 && text[19] == '.')) &&
      text[4] == '-' && text[7] == '-' && text[10] == ' ' &&
      text[13] == ':' && text[16] == ':' &&
      get_digits(text, 0, 4, c.year) && get_digits(text, 5, 2, c.month) &&
      get_digits(text, 8, 2, c.day) && get_digits(text, 11, 2, c.hour) &&
      get_digits(text, 14, 2, c.minute) &&
      get_digits(text, 17, 2, c.second) &&
      (text.size() == 19 || get_digits(text, 20, 3, c.millisecond));
  if (!shape_ok) {
    throw std::invalid_argument{"parse_civil: malformed timestamp '" + text +
                                "'"};
  }
  if (c.month < 1 || c.month > 12 || c.day < 1 || c.day > 31 ||
      c.hour > 23 || c.minute > 59 || c.second > 60) {
    throw std::invalid_argument{"parse_civil: out-of-range field in '" + text +
                                "'"};
  }
  return c;
}

}  // namespace wheels
