// The app-session executor shared by DriveCampaign and ReplayCampaign.
//
// The paper's §7 app results are QoE computed over the link a phone saw
// while driving. The campaign feeds an app session the radio model's ticks;
// a replay feeds it recorded (or statistically re-created) ticks. Both run
// the session here, so one place decides which model a test type runs,
// which AppRunRecord fields it fills and how many bytes it moves.
#pragma once

#include "apps/link_trace.hpp"
#include "measure/records.hpp"

namespace wheels::campaign {

/// One app session's outcome: its QoE record and the application-layer
/// bytes it moved (offload frames go up, video and game streams come down).
struct AppSession {
  measure::AppRunRecord run;
  double rx_bytes = 0.0;
  double tx_bytes = 0.0;
};

/// Run the AR/CAV offload, 360° video or cloud-gaming model of `test` over
/// `trace` (one apps::LinkTick per 500 ms). `compressed` selects frame
/// compression for the offload apps and is ignored by the others. The
/// record carries `test`'s id, carrier, motion regime and server class.
/// Throws std::invalid_argument unless `test` is an app test.
AppSession run_app_session(const measure::TestRecord& test,
                           const apps::LinkTrace& trace, bool compressed);

}  // namespace wheels::campaign
