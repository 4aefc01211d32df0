// Per-carrier summaries of a (replayed or recorded) ConsolidatedDb and a
// side-by-side comparison table — the CLI's "what changed" view and the
// fidelity test's yardstick.
#pragma once

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "measure/records.hpp"
#include "radio/technology.hpp"

namespace wheels::replay {

/// Raw per-carrier sample series of a database — the inputs the headline
/// medians are computed from. ReplayFleet pools these across bundles, so
/// fleet-level medians/CIs are over the union of samples, not medians of
/// medians.
struct CarrierSamples {
  radio::Carrier carrier = radio::Carrier::Verizon;
  std::size_t tests = 0;
  std::vector<double> dl_mbps;
  std::vector<double> ul_mbps;
  std::vector<double> rtt_ms;
  std::vector<double> video_qoe;
  std::vector<double> gaming_latency_ms;
  std::vector<double> offload_e2e_ms;
  std::size_t app_runs = 0;
};

using DbSamples = std::array<CarrierSamples, radio::kCarrierCount>;

DbSamples collect_samples(const measure::ConsolidatedDb& db);

/// Headline medians of one carrier's slice of a database.
struct CarrierSummary {
  radio::Carrier carrier = radio::Carrier::Verizon;
  std::size_t tests = 0;
  std::size_t kpi_samples = 0;
  std::size_t rtt_samples = 0;
  std::size_t app_runs = 0;
  double dl_median_mbps = 0.0;
  double ul_median_mbps = 0.0;
  double rtt_median_ms = 0.0;
  double video_qoe = 0.0;
  double gaming_latency_ms = 0.0;
  double offload_e2e_ms = 0.0;
};

struct ReportSummary {
  std::array<CarrierSummary, radio::kCarrierCount> carriers;
};

ReportSummary summarize(const measure::ConsolidatedDb& db);

/// The summary `summarize` would produce for a database whose samples are
/// `s` — the path ReplayFleet uses on pooled series.
ReportSummary summarize_samples(const DbSamples& s);

/// Print one database's per-carrier headline table.
void print_summary(std::ostream& os, const std::string& title,
                   const ReportSummary& s);

/// Print `before` and `after` side by side, one row per (carrier, metric),
/// with the relative change — the counterfactual diff view.
void print_comparison(std::ostream& os, const std::string& before_title,
                      const ReportSummary& before,
                      const std::string& after_title,
                      const ReportSummary& after);

}  // namespace wheels::replay
