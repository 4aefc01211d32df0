// Export a campaign as a CSV dataset bundle — the equivalent of the paper's
// public dataset release [8].
//
//   ./export_dataset [directory] [scale]
#include <cstdlib>
#include <iostream>

#include "campaign/campaign.hpp"
#include "core/obs/metrics.hpp"
#include "measure/csv_export.hpp"

int main(int argc, char** argv) {
  using namespace wheels;
  core::obs::flush_at_exit();

  const std::string dir = argc > 1 ? argv[1] : "wheels-dataset";
  campaign::CampaignConfig config = campaign::config_from_env(0.1);
  if (argc > 2) {
    const double s = std::atof(argv[2]);
    if (s <= 0.0 || s > 1.0) {
      std::cerr << "usage: export_dataset [directory] [scale in (0,1]]\n";
      return 2;
    }
    config.scale = s;
  }

  std::cout << "Simulating campaign (scale " << config.scale << ")...\n";
  const measure::ConsolidatedDb db = campaign::DriveCampaign{config}.run();

  std::cout << "Writing dataset to " << dir << "/ ...\n";
  const auto files =
      measure::write_dataset(db, dir, campaign::make_manifest(config));
  for (const auto& f : files) std::cout << "  " << f << '\n';

  std::cout << "\n" << db.kpis.size() << " KPI rows, " << db.rtts.size()
            << " RTT samples, " << db.handovers.size() << " handovers, "
            << db.app_runs.size()
            << " app runs.\nRe-load the two big tables with "
               "measure::read_kpis_csv / read_rtts_csv.\n";
  return 0;
}
