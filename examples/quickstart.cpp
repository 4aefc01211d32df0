// Quickstart: run a small simulated drive campaign and print the headline
// numbers. This exercises the full public API surface:
//
//   CampaignConfig → DriveCampaign → ConsolidatedDb → analysis::*
//
// Scale 0.05 drives ~286 km of the compressed LA→Boston map (all four
// timezones, all region types) and takes a few seconds. All WHEELS_* knobs
// apply; in particular WHEELS_UES=50000 adds a background-subscriber
// population and prints its per-cell load summary (docs/SCALING.md).
#include <algorithm>
#include <iostream>

#include "analysis/coverage.hpp"
#include "analysis/queries.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "campaign/campaign.hpp"
#include "core/obs/metrics.hpp"

int main() {
  using namespace wheels;
  core::obs::flush_at_exit();

  campaign::CampaignConfig config = campaign::config_from_env(0.05);

  std::cout << "Simulating the LA->Boston drive campaign (scale "
            << config.scale << ")";
  if (config.population > 0) {
    std::cout << " with " << config.population << " background UEs ("
              << ran::scheduler_kind_name(config.scheduler) << " scheduler)";
  }
  std::cout << "...\n";
  const measure::ConsolidatedDb db = campaign::DriveCampaign{config}.run();

  std::cout << "Drove " << analysis::fmt(db.driven_km, 1) << " km; "
            << db.tests.size() << " tests, " << db.kpis.size()
            << " KPI rows, " << db.rtts.size() << " RTT samples, "
            << db.handovers.size() << " handovers, " << db.app_runs.size()
            << " app runs\n";

  analysis::Table table({"carrier", "5G share", "DL median", "UL median",
                         "RTT median", "HOs"});
  for (radio::Carrier c : radio::kAllCarriers) {
    const auto shares = analysis::coverage_from_kpis(
        db, [&](const measure::KpiRecord& k) { return k.carrier == c; });

    analysis::KpiFilter dl;
    dl.carrier = c;
    dl.direction = radio::Direction::Downlink;
    dl.is_static = false;
    analysis::KpiFilter ul = dl;
    ul.direction = radio::Direction::Uplink;
    analysis::RttFilter rf;
    rf.carrier = c;
    rf.is_static = false;

    const analysis::Cdf dl_cdf{analysis::throughput_samples(db, dl)};
    const analysis::Cdf ul_cdf{analysis::throughput_samples(db, ul)};
    const analysis::Cdf rtt_cdf{analysis::rtt_samples(db, rf)};

    int hos = 0;
    for (const auto& h : db.handovers) hos += h.carrier == c;

    table.add_row({std::string(radio::carrier_name(c)),
                   analysis::fmt_pct(analysis::five_g_share(shares)),
                   analysis::fmt(dl_cdf.quantile(0.5)) + " Mbps",
                   analysis::fmt(ul_cdf.quantile(0.5)) + " Mbps",
                   analysis::fmt(rtt_cdf.quantile(0.5)) + " ms",
                   std::to_string(hos)});
  }
  table.print(std::cout);

  if (!db.cell_load.empty()) {
    // The background population's footprint: the busiest cells per carrier.
    std::vector<measure::CellLoadRecord> load = db.cell_load;
    std::sort(load.begin(), load.end(),
              [](const auto& a, const auto& b) {
                return a.utilization > b.utilization;
              });
    analysis::Table cells({"cell", "carrier", "tech", "attached", "active",
                           "util", "fairness"});
    const std::size_t top = std::min<std::size_t>(load.size(), 8);
    for (std::size_t i = 0; i < top; ++i) {
      const auto& c = load[i];
      cells.add_row({std::to_string(c.cell_id),
                     std::string(radio::carrier_name(c.carrier)),
                     std::string(radio::technology_name(c.tech)),
                     analysis::fmt(c.avg_attached, 1),
                     analysis::fmt(c.avg_active, 1),
                     analysis::fmt_pct(c.utilization),
                     analysis::fmt(c.fairness, 3)});
    }
    std::cout << "\nBusiest cells of the " << db.cell_load.size()
              << "-cell background population (by utilization):\n";
    cells.print(std::cout);
  }

  std::cout << "\nPaper headline check: T-Mobile should lead 5G coverage;\n"
               "driving DL medians should sit in the tens of Mbps; RTT\n"
               "medians around 60-80 ms. See bench/ for every figure/table.\n";
  return 0;
}
