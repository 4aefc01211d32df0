// Render the paper's key figures as SVG files from a simulated campaign.
//
//   ./render_figures [output-dir] [scale]     (default: ./figures, 0.15)
//
// Produces:
//   fig03_throughput_cdf.svg   — static vs driving DL CDFs (Fig. 3)
//   fig04_tech_cdf.svg         — per-technology driving DL CDFs (Fig. 4)
//   fig07_speed_scatter.svg    — throughput vs speed scatter (Fig. 7)
//   fig09_test_means.svg       — per-test mean CDFs (Fig. 9)
//   fig11_handover_cdf.svg     — handovers per mile CDFs (Fig. 11a)
#include <cstdlib>
#include <iostream>

#include "analysis/handover_impact.hpp"
#include "analysis/queries.hpp"
#include "analysis/svg_plot.hpp"
#include "campaign/campaign.hpp"
#include "core/obs/metrics.hpp"

int main(int argc, char** argv) {
  using namespace wheels;
  using namespace wheels::analysis;
  core::obs::flush_at_exit();

  const std::string dir = argc > 1 ? argv[1] : "figures";
  campaign::CampaignConfig config = campaign::config_from_env(0.15);
  if (argc > 2) {
    const double s = std::atof(argv[2]);
    if (s <= 0.0 || s > 1.0) {
      std::cerr << "usage: render_figures [output-dir] [scale in (0,1]]\n";
      return 2;
    }
    config.scale = s;
  }

  std::cout << "Simulating (scale " << config.scale << ")...\n";
  const measure::ConsolidatedDb db = campaign::DriveCampaign{config}.run();

  // Fig. 3: static vs driving downlink throughput.
  {
    SvgPlot plot{"Fig. 3: downlink throughput, static vs driving",
                 "throughput (Mbps)", "CDF"};
    plot.set_log_x(true);
    for (radio::Carrier c : radio::kAllCarriers) {
      for (const bool is_static : {true, false}) {
        KpiFilter f;
        f.carrier = c;
        f.is_static = is_static;
        f.direction = radio::Direction::Downlink;
        const Cdf cdf{throughput_samples(db, f)};
        if (cdf.empty()) continue;
        plot.add_cdf(cdf, std::string(radio::carrier_name(c)) +
                              (is_static ? " static" : " driving"));
      }
    }
    plot.save(dir + "/fig03_throughput_cdf.svg");
  }

  // Fig. 4: per-technology driving DL CDFs (T-Mobile as exemplar).
  {
    SvgPlot plot{"Fig. 4: T-Mobile driving DL throughput by technology",
                 "throughput (Mbps)", "CDF"};
    plot.set_log_x(true);
    for (radio::Technology tech : radio::kAllTechnologies) {
      KpiFilter f;
      f.carrier = radio::Carrier::TMobile;
      f.tech = tech;
      f.is_static = false;
      f.direction = radio::Direction::Downlink;
      const Cdf cdf{throughput_samples(db, f)};
      if (cdf.size() < 30) continue;
      plot.add_cdf(cdf, std::string(radio::technology_name(tech)));
    }
    plot.save(dir + "/fig04_tech_cdf.svg");
  }

  // Fig. 7: throughput vs speed scatter (downlink).
  {
    SvgPlot plot{"Fig. 7: DL throughput vs speed", "speed (mph)",
                 "throughput (Mbps)"};
    for (radio::Carrier c : radio::kAllCarriers) {
      std::vector<PlotPoint> pts;
      int i = 0;
      for (const auto& k : db.kpis) {
        if (k.carrier != c || k.is_static ||
            k.direction != radio::Direction::Downlink) {
          continue;
        }
        if (k.throughput > 1000.0) continue;  // paper cuts the plot there
        if (++i % 5 != 0) continue;           // subsample: keep the SVG small
        pts.push_back({k.speed, k.throughput});
      }
      plot.add_scatter(std::move(pts), std::string(radio::carrier_name(c)));
    }
    plot.save(dir + "/fig07_speed_scatter.svg");
  }

  // Fig. 9: per-test DL mean CDFs.
  {
    SvgPlot plot{"Fig. 9: per-test DL mean throughput", "mean Mbps", "CDF"};
    plot.set_log_x(true);
    for (radio::Carrier c : radio::kAllCarriers) {
      std::vector<double> means;
      for (const auto& s :
           per_test_throughput(db, c, radio::Direction::Downlink)) {
        means.push_back(s.mean);
      }
      plot.add_cdf(Cdf{std::move(means)}, std::string(radio::carrier_name(c)));
    }
    plot.save(dir + "/fig09_test_means.svg");
  }

  // Fig. 11a: handovers per mile.
  {
    SvgPlot plot{"Fig. 11a: handovers per mile (DL tests)",
                 "handovers / mile", "CDF"};
    for (radio::Carrier c : radio::kAllCarriers) {
      plot.add_cdf(
          Cdf{handovers_per_mile(db, c, radio::Direction::Downlink)},
          std::string(radio::carrier_name(c)));
    }
    plot.save(dir + "/fig11_handover_cdf.svg");
  }

  std::cout << "Wrote 5 SVG figures to " << dir << "/\n";
  return 0;
}
