#include "core/sim_time.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace wheels {
namespace {

TEST(SimTime, CampaignEpochIsAug8_2022_15UTC) {
  const CivilDateTime c = civil_from_unix(campaign_start_unix_ms(), 0);
  EXPECT_EQ(c.year, 2022);
  EXPECT_EQ(c.month, 8);
  EXPECT_EQ(c.day, 8);
  EXPECT_EQ(c.hour, 15);
  EXPECT_EQ(c.minute, 0);
}

TEST(SimTime, CampaignEpochIs8amPacific) {
  const CivilDateTime c = civil_from_unix(campaign_start_unix_ms(), -420);
  EXPECT_EQ(c.hour, 8);
  EXPECT_EQ(c.day, 8);
}

TEST(SimTime, DaysFromCivilKnownValues) {
  EXPECT_EQ(days_from_civil(1970, 1, 1), 0);
  EXPECT_EQ(days_from_civil(1970, 1, 2), 1);
  EXPECT_EQ(days_from_civil(1969, 12, 31), -1);
  EXPECT_EQ(days_from_civil(2000, 3, 1), 11017);
}

TEST(SimTime, CivilDaysRoundTrip) {
  for (std::int64_t d = -1000; d <= 40000; d += 13) {
    int y = 0, m = 0, day = 0;
    civil_from_days(d, y, m, day);
    EXPECT_EQ(days_from_civil(y, m, day), d);
  }
}

TEST(SimTime, LeapYearHandling) {
  int y = 0, m = 0, d = 0;
  civil_from_days(days_from_civil(2020, 2, 29), y, m, d);
  EXPECT_EQ(y, 2020);
  EXPECT_EQ(m, 2);
  EXPECT_EQ(d, 29);
}

TEST(SimTime, UnixCivilRoundTripAcrossOffsets) {
  const UnixMillis t = campaign_start_unix_ms() + 123'456'789;
  for (int offset : {-420, -360, -300, -240, 0, 60}) {
    const CivilDateTime c = civil_from_unix(t, offset);
    EXPECT_EQ(unix_from_civil(c, offset), t) << "offset " << offset;
  }
}

TEST(SimTime, SimUnixRoundTrip) {
  EXPECT_EQ(sim_from_unix(unix_from_sim(987'654)), 987'654);
  EXPECT_EQ(unix_from_sim(0), campaign_start_unix_ms());
}

TEST(SimTime, SameInstantDifferentOffsetsDifferByWallHours) {
  const UnixMillis t = campaign_start_unix_ms();
  const CivilDateTime pacific = civil_from_unix(t, -420);
  const CivilDateTime eastern = civil_from_unix(t, -240);
  EXPECT_EQ(eastern.hour - pacific.hour, 3);
}

TEST(SimTime, FormatCivil) {
  CivilDateTime c{2022, 8, 8, 8, 5, 3, 42};
  EXPECT_EQ(format_civil(c), "2022-08-08 08:05:03.042");
}

TEST(SimTime, FormatTimestampLocal) {
  EXPECT_EQ(format_timestamp(campaign_start_unix_ms(), -240),
            "2022-08-08 11:00:00.000");
}

TEST(SimTime, ParseCivilWithMillis) {
  const CivilDateTime c = parse_civil("2022-08-12 17:30:05.250");
  EXPECT_EQ(c.year, 2022);
  EXPECT_EQ(c.month, 8);
  EXPECT_EQ(c.day, 12);
  EXPECT_EQ(c.hour, 17);
  EXPECT_EQ(c.minute, 30);
  EXPECT_EQ(c.second, 5);
  EXPECT_EQ(c.millisecond, 250);
}

TEST(SimTime, ParseCivilWithoutMillis) {
  EXPECT_EQ(parse_civil("2022-08-12 17:30:05").millisecond, 0);
}

TEST(SimTime, ParseFormatRoundTrip) {
  const CivilDateTime c{2023, 12, 31, 23, 59, 59, 999};
  EXPECT_EQ(parse_civil(format_civil(c)), c);
}

TEST(SimTime, ParseRejectsGarbage) {
  EXPECT_THROW(parse_civil("not a time"), std::invalid_argument);
  EXPECT_THROW(parse_civil("2022-13-01 00:00:00"), std::invalid_argument);
  EXPECT_THROW(parse_civil("2022-01-40 00:00:00"), std::invalid_argument);
  EXPECT_THROW(parse_civil("2022-01-01 25:00:00"), std::invalid_argument);
}

TEST(SimTime, FormatMatchesPrintf) {
  // Every month start of 2020-2030 (so every month and year boundary), each
  // leap day, and a stride through the decade that visits all hours,
  // minutes and seconds; each instant with milliseconds 0 and 999 around
  // it, seen at the trip's offsets and east of UTC.
  std::vector<UnixMillis> instants;
  for (int year = 2020; year <= 2030; ++year) {
    for (int month = 1; month <= 12; ++month) {
      instants.push_back(unix_from_civil({year, month, 1, 0, 0, 0, 0}, 0));
    }
    if (days_from_civil(year, 3, 1) - days_from_civil(year, 2, 28) == 2) {
      instants.push_back(unix_from_civil({year, 2, 29, 0, 0, 0, 0}, 0));
    }
  }
  const UnixMillis end = unix_from_civil({2031, 1, 1, 0, 0, 0, 0}, 0);
  for (UnixMillis t = instants.front(); t < end; t += 3'715'001'000) {
    instants.push_back(t);
  }
  for (const UnixMillis at : instants) {
    for (const UnixMillis t : {at - 1, at, at + 999}) {
      for (const int offset : {-420, -240, 0, 60}) {
        const CivilDateTime c = civil_from_unix(t, offset);
        char expected[32];
        std::snprintf(expected, sizeof(expected),
                      "%04d-%02d-%02d %02d:%02d:%02d.%03d", c.year, c.month,
                      c.day, c.hour, c.minute, c.second, c.millisecond);
        const std::string text = format_timestamp(t, offset);
        ASSERT_EQ(text, expected) << t << " @" << offset;
        ASSERT_EQ(parse_civil(text), c) << text;
        ASSERT_EQ(unix_from_civil(parse_civil(text), offset), t) << text;
      }
    }
  }
}

TEST(SimTime, FormatThrowsOnAFieldWiderThanItsWidth) {
  EXPECT_THROW(format_civil({-1, 1, 1, 0, 0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(format_civil({10000, 1, 1, 0, 0, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(format_civil({2022, 8, 8, -1, 0, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(format_civil({2022, 8, 8, 0, 0, 0, 1000}),
               std::invalid_argument);
  EXPECT_EQ(format_civil({0, 1, 1, 0, 0, 0, 0}), "0000-01-01 00:00:00.000");
  EXPECT_EQ(format_civil({9999, 12, 31, 23, 59, 60, 999}),
            "9999-12-31 23:59:60.999");
}

TEST(SimTime, ParseRejectsWhatFormatNeverWrites) {
  for (const char* text : {
           "2022-8-8 8:5:3",              // unpadded fields
           "2022-08-08 8:05:03",          // one unpadded field
           "+2022-08-08 08:05:03",        // a sign
           "2022-08-08 08:05:+3",         // a sign inside a field
           "2022-08-08 -8:05:03",         // a negative field
           " 2022-08-08 08:05:03",        // a leading blank
           "2022-08-08 08:05: 3",         // a blank inside a field
           "2022-08-08 08:05:03Z",        // trailing text
           "2022-08-08 08:05:03.042 PDT",  // trailing text after millis
           "2022-08-08 08:05:03.25",      // two millisecond digits
           "2022-08-08 08:05:03.2500",    // four millisecond digits
           "2022-08-08 08:05:03.2",       // one millisecond digit
           "2022-08-08 08:05:03.",        // a dot without digits
           "2022-08-08T08:05:03",         // another separator
           "",
       }) {
    EXPECT_THROW(parse_civil(text), std::invalid_argument) << "'" << text
                                                           << "'";
  }
  EXPECT_EQ(parse_civil("2022-08-08 08:05:03.250").millisecond, 250);
}

TEST(SimTime, MidnightCrossingsWithNegativeOffset) {
  // 2022-08-09 01:00 UTC is still 2022-08-08 in Pacific time.
  const UnixMillis t =
      unix_from_civil(CivilDateTime{2022, 8, 9, 1, 0, 0, 0}, 0);
  const CivilDateTime local = civil_from_unix(t, -420);
  EXPECT_EQ(local.day, 8);
  EXPECT_EQ(local.hour, 18);
}

}  // namespace
}  // namespace wheels
