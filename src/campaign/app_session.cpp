#include "campaign/app_session.hpp"

#include <stdexcept>
#include <string>

#include "apps/gaming.hpp"
#include "apps/offload.hpp"
#include "apps/video.hpp"

namespace wheels::campaign {

AppSession run_app_session(const measure::TestRecord& test,
                           const apps::LinkTrace& trace, bool compressed) {
  const std::optional<measure::AppKind> kind = measure::app_kind_of(test.type);
  if (!kind.has_value()) {
    throw std::invalid_argument{
        "app session: " + std::string{measure::test_type_name(test.type)} +
        " is not an app test"};
  }
  AppSession session;
  measure::AppRunRecord& r = session.run;
  r.test_id = test.id;
  r.app = *kind;
  r.carrier = test.carrier;
  r.is_static = test.is_static;
  r.server = test.server;
  r.high_speed_5g_fraction = apps::high_speed_5g_fraction(trace);
  r.handovers = apps::total_handovers(trace);
  const Millis duration = static_cast<Millis>(trace.size()) * apps::kLinkTickMs;

  switch (*kind) {
    case measure::AppKind::Ar:
    case measure::AppKind::Cav: {
      const apps::OffloadConfig config = *kind == measure::AppKind::Ar
                                             ? apps::ar_config()
                                             : apps::cav_config();
      const apps::OffloadRunResult run =
          apps::OffloadApp{config}.run(trace, compressed);
      r.compressed = run.compressed;
      r.median_e2e = run.median_e2e;
      r.offload_fps = run.offload_fps;
      r.map_percent = run.map_percent;
      // Every offloaded frame leaves the device; the product stays
      // left-to-right so the summed byte counter keeps its last bit.
      const double frame_kb =
          run.compressed ? config.compressed_kb : config.raw_kb;
      session.tx_bytes =
          static_cast<double>(run.frames.size()) * frame_kb * 1024.0;
      break;
    }
    case measure::AppKind::Video: {
      apps::VideoConfig vc;
      vc.run_duration = duration;
      const apps::VideoRunResult run = apps::VideoApp{vc}.run(trace);
      r.qoe = run.avg_qoe;
      r.rebuffer_fraction = run.rebuffer_fraction;
      r.avg_bitrate = run.avg_bitrate;
      session.rx_bytes =
          run.avg_bitrate * 1e6 / 8.0 * (vc.run_duration / 1000.0);
      break;
    }
    case measure::AppKind::Gaming: {
      apps::GamingConfig gc;
      gc.run_duration = duration;
      const apps::GamingRunResult run = apps::GamingApp{gc}.run(trace);
      r.gaming_bitrate = run.median_bitrate;
      r.gaming_latency = run.median_latency;
      r.gaming_frame_drop = run.median_frame_drop;
      r.gaming_max_frame_drop = run.max_frame_drop;
      session.rx_bytes =
          run.median_bitrate * 1e6 / 8.0 * (gc.run_duration / 1000.0);
      break;
    }
  }
  return session;
}

}  // namespace wheels::campaign
