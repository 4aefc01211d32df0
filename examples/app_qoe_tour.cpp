// App QoE tour: run all four "5G killer" apps over the same three link
// conditions — lab-grade static mmWave, a good driving stretch, a bad
// driving stretch — and print the QoE side by side (§7 in one screen).
#include <iostream>

#include "analysis/report.hpp"
#include "apps/gaming.hpp"
#include "apps/offload.hpp"
#include "apps/video.hpp"
#include "core/obs/metrics.hpp"
#include "core/rng.hpp"

namespace {

using namespace wheels;

// Build a synthetic 3-minute link trace for a named condition.
apps::LinkTrace make_condition(const std::string& name, Rng rng) {
  apps::LinkTrace trace(360);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    apps::LinkTick& t = trace[i];
    if (name == "static mmWave+edge") {
      t.cap_dl = rng.uniform(900.0, 1600.0);
      t.cap_ul = rng.uniform(90.0, 160.0);
      t.rtt = rng.uniform(12.0, 22.0);
      t.tech = radio::Technology::NrMmWave;
    } else if (name == "good drive (midband)") {
      t.cap_dl = rng.uniform(40.0, 220.0);
      t.cap_ul = rng.uniform(10.0, 40.0);
      t.rtt = rng.uniform(45.0, 90.0);
      t.tech = radio::Technology::NrMid;
      if (rng.bernoulli(0.04)) t.cap_dl = t.cap_ul = 1.0;  // brief dips
    } else {  // bad drive (cell edge LTE)
      t.cap_dl = rng.uniform(1.0, 12.0);
      t.cap_ul = rng.uniform(0.3, 4.0);
      t.rtt = rng.uniform(70.0, 160.0);
      t.tech = radio::Technology::Lte;
      if (rng.bernoulli(0.10)) t.cap_dl = t.cap_ul = 0.2;
    }
  }
  return trace;
}

}  // namespace

int main() {
  using namespace wheels;
  core::obs::flush_at_exit();
  Rng root{7};

  analysis::Table t({"condition", "AR E2E/FPS/mAP", "CAV E2E (comp.)",
                     "video QoE / rebuf", "gaming Mbps / drop"});

  for (const std::string& cond :
       {std::string("static mmWave+edge"), std::string("good drive (midband)"),
        std::string("bad drive (LTE edge)")}) {
    const apps::LinkTrace trace = make_condition(cond, root.fork(cond));

    const auto ar = apps::OffloadApp{apps::ar_config()}.run(trace, true);
    const auto cav = apps::OffloadApp{apps::cav_config()}.run(trace, true);
    apps::VideoConfig vc;
    const auto video = apps::VideoApp{vc}.run(trace);
    apps::GamingConfig gc;
    gc.run_duration = 180'000.0;
    const auto gaming = apps::GamingApp{gc}.run(trace);

    t.add_row({cond,
               analysis::fmt(ar.median_e2e, 0) + "ms / " +
                   analysis::fmt(ar.offload_fps, 1) + " / " +
                   analysis::fmt(ar.map_percent, 1),
               analysis::fmt(cav.median_e2e, 0) + "ms",
               analysis::fmt(video.avg_qoe, 1) + " / " +
                   analysis::fmt_pct(video.rebuffer_fraction),
               analysis::fmt(gaming.median_bitrate, 1) + " / " +
                   analysis::fmt_pct(gaming.median_frame_drop)});
  }
  t.print(std::cout);

  std::cout << "\nReading guide (paper §7): the CAV pipeline misses its "
               "100 ms budget even on\nthe best link (compression + "
               "inference alone cost ~98 ms); video and gaming\ndegrade "
               "gracefully until the link collapses; everything is dreadful "
               "at the\ncell edge regardless of app-level cleverness.\n";
  return 0;
}
