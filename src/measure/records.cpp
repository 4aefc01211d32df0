#include "measure/records.hpp"

namespace wheels::measure {

std::string_view test_type_name(TestType t) {
  switch (t) {
    case TestType::DownlinkBulk: return "downlink-bulk";
    case TestType::UplinkBulk: return "uplink-bulk";
    case TestType::Rtt: return "rtt";
    case TestType::ArApp: return "ar";
    case TestType::CavApp: return "cav";
    case TestType::Video: return "video";
    case TestType::Gaming: return "gaming";
  }
  return "?";
}

std::string_view app_kind_name(AppKind a) {
  switch (a) {
    case AppKind::Ar: return "AR";
    case AppKind::Cav: return "CAV";
    case AppKind::Video: return "360-video";
    case AppKind::Gaming: return "cloud-gaming";
  }
  return "?";
}

std::optional<AppKind> app_kind_of(TestType type) {
  switch (type) {
    case TestType::ArApp: return AppKind::Ar;
    case TestType::CavApp: return AppKind::Cav;
    case TestType::Video: return AppKind::Video;
    case TestType::Gaming: return AppKind::Gaming;
    default: return std::nullopt;
  }
}

const TestRecord* ConsolidatedDb::find_test(std::uint32_t id) const {
  for (const TestRecord& t : tests) {
    if (t.id == id) return &t;
  }
  return nullptr;
}

}  // namespace wheels::measure
