#include "measure/log_sync.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace wheels::measure {

UnixMillis LogSynchronizer::normalize_drm_timestamp(
    const std::string& edt_text) {
  return unix_from_civil(parse_civil(edt_text), kEdtOffsetMinutes);
}

UnixMillis LogSynchronizer::normalize_app_timestamp(const AppLogLine& line,
                                                    const AppLogFile& file) {
  int offset = 0;
  switch (file.policy) {
    case TimestampPolicy::Utc: offset = 0; break;
    case TimestampPolicy::LocalTime: offset = file.local_offset_minutes; break;
    case TimestampPolicy::Edt: offset = kEdtOffsetMinutes; break;
  }
  return unix_from_civil(parse_civil(line.timestamp), offset);
}

std::vector<KpiRecord> LogSynchronizer::join(const DrmFile& drm,
                                             const AppLogFile& app,
                                             Millis tolerance) {
  // Normalise the app series once, sorted by time.
  std::vector<std::pair<UnixMillis, double>> series;
  series.reserve(app.lines.size());
  for (const AppLogLine& line : app.lines) {
    series.emplace_back(normalize_app_timestamp(line, app), line.value);
  }
  std::sort(series.begin(), series.end());

  std::vector<KpiRecord> out;
  out.reserve(drm.rows.size());
  for (const DrmRow& row : drm.rows) {
    const UnixMillis t = normalize_drm_timestamp(row.edt_timestamp);
    KpiRecord kpi = row.kpi;
    kpi.t = sim_from_unix(t);

    if (!series.empty()) {
      const auto it = std::lower_bound(
          series.begin(), series.end(), std::make_pair(t, -1e300));
      UnixMillis best_dt = static_cast<UnixMillis>(tolerance) + 1;
      double best_value = kpi.throughput;
      if (it != series.end()) {
        const UnixMillis dt = std::llabs(it->first - t);
        if (dt < best_dt) {
          best_dt = dt;
          best_value = it->second;
        }
      }
      if (it != series.begin()) {
        const auto prev = std::prev(it);
        const UnixMillis dt = std::llabs(prev->first - t);
        if (dt < best_dt) {
          best_dt = dt;
          best_value = prev->second;
        }
      }
      if (best_dt <= static_cast<UnixMillis>(tolerance)) {
        kpi.throughput = best_value;
      }
    }
    out.push_back(kpi);
  }
  std::stable_sort(
      out.begin(), out.end(),
      [](const KpiRecord& a, const KpiRecord& b) { return a.t < b.t; });
  return out;
}

std::vector<std::pair<SimMillis, double>> LogSynchronizer::normalize_series(
    const AppLogFile& app) {
  std::vector<std::pair<SimMillis, double>> out;
  out.reserve(app.lines.size());
  for (const AppLogLine& line : app.lines) {
    out.emplace_back(sim_from_unix(normalize_app_timestamp(line, app)),
                     line.value);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wheels::measure
