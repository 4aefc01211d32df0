// Trip planner: which operator should a connected vehicle use, where?
//
// Cuts the LA→Boston route into segments, summarises each carrier's driving
// DL throughput per segment, prints the winner map, and quantifies what an
// ideal multi-operator device would gain (§5.4's recommendation, spatially).
#include <iostream>

#include "analysis/report.hpp"
#include "analysis/segments.hpp"
#include "campaign/campaign.hpp"
#include "core/obs/metrics.hpp"
#include "geo/route.hpp"

int main() {
  using namespace wheels;
  core::obs::flush_at_exit();

  campaign::CampaignConfig config = campaign::config_from_env(0.2);
  config.run_apps = false;
  std::cout << "Simulating (scale " << config.scale << ")...\n";
  const measure::ConsolidatedDb db = campaign::DriveCampaign{config}.run();

  const geo::Route route = geo::Route::cross_country();
  const auto segments = analysis::segment_quality(db, route.total_km(), 80.0);

  // Winner strip: V/T/A per 80 km segment.
  std::string strip;
  for (const auto& s : segments) {
    if (!s.best) {
      strip += ' ';
    } else {
      strip += radio::carrier_name(*s.best)[0];  // V/T/A
    }
  }
  std::cout << "\nbest operator per 80 km segment (V=Verizon, T=T-Mobile, "
               "A=AT&T):\n  LA "
            << strip << " Boston\n\n";

  analysis::Table t({"carrier", "segments won", "win share"});
  for (radio::Carrier c : radio::kAllCarriers) {
    const double share = analysis::win_share(segments, c);
    int wins = 0;
    for (const auto& s : segments) wins += s.best && *s.best == c;
    t.add_row({std::string(radio::carrier_name(c)), std::to_string(wins),
               analysis::fmt_pct(share)});
  }
  t.print(std::cout);

  std::cout << "\nwinner changes along the route: "
            << analysis::operator_flips(segments) << "\n";

  // The multi-operator dividend.
  std::vector<double> single_best, all_best;
  for (const auto& s : segments) {
    if (!s.best || !s.best_of_all_median) continue;
    single_best.push_back(s.best_median);
    all_best.push_back(*s.best_of_all_median);
  }
  std::cout << "median segment throughput: best single operator "
            << analysis::fmt(analysis::median_of(single_best), 1)
            << " Mbps  vs  per-tick best-of-three "
            << analysis::fmt(analysis::median_of(all_best), 1)
            << " Mbps\n\nEven picking the locally best operator per segment "
               "leaves throughput on\nthe table: the winner changes faster "
               "than any static choice can follow,\nwhich is the paper's "
               "multi-connectivity argument in road-atlas form.\n";
  return 0;
}
