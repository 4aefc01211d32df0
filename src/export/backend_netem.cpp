// tc-netem/HTB backend: a self-contained shell script replaying the
// schedule on a live interface (ERRANT's emulation recipe).
//
// The script installs an HTB root with one shaped class (downlink rate)
// and a netem child (one-way delay = rtt/2, loss = tick_loss: the share of
// the tick a handover interruption blanked), then steps through the
// timeline with `sleep tick` + `tc ... change` pairs — the standard way to
// impose a time-varying cellular schedule on real traffic without kernel
// patches. Uplink shaping needs a second interface (or an ifb redirect),
// so the script shapes the downlink and records the uplink rate in a
// comment per step. The output is plain POSIX sh; CI runs `bash -n` over a
// generated script to keep it parseable.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "export/exporter.hpp"

namespace wheels::emu {

namespace {

/// HTB refuses a zero rate; clamp to a floor well below one opportunity
/// per tick so an outage tick still throttles to effectively nothing.
long long rate_kbit(double cap_mbps) {
  return std::max(8LL, std::llround(cap_mbps * 1000.0));
}

class NetemExporter final : public EmuExporter {
 public:
  std::string_view name() const override { return "netem"; }

  std::string_view description() const override {
    return "tc qdisc schedule script (.sh): HTB rate shaping + netem "
           "delay/loss, one timed change per tick";
  }

 private:
  std::vector<ExportArtifact> do_render(
      const EmuTimeline& timeline) const override {
    std::string out;
    char buf[256];
    const double tick_s = static_cast<double>(timeline.tick_ms) * 1e-3;
    std::snprintf(buf, sizeof(buf),
                  "#!/bin/sh\n"
                  "# wheels link schedule: %zu ticks x %lld ms\n"
                  "# usage: %s [iface]   (default eth0; needs root)\n"
                  "set -e\n"
                  "IFACE=\"${1:-eth0}\"\n"
                  "tc qdisc del dev \"$IFACE\" root 2>/dev/null || true\n"
                  "tc qdisc add dev \"$IFACE\" root handle 1: htb default "
                  "10\n",
                  timeline.ticks.size(),
                  static_cast<long long>(timeline.tick_ms), "schedule.sh");
    out += buf;
    for (std::size_t i = 0; i < timeline.ticks.size(); ++i) {
      const apps::LinkTick& t = timeline.ticks[i];
      const char* class_verb = i == 0 ? "add" : "change";
      if (i > 0) {
        std::snprintf(buf, sizeof(buf), "sleep %.3f\n", tick_s);
        out += buf;
      }
      std::snprintf(buf, sizeof(buf), "# tick %zu: ul %.3f Mbps\n", i,
                    t.cap_ul);
      out += buf;
      std::snprintf(buf, sizeof(buf),
                    "tc class %s dev \"$IFACE\" parent 1: classid 1:10 htb "
                    "rate %lldkbit\n",
                    class_verb, rate_kbit(t.cap_dl));
      out += buf;
      std::snprintf(buf, sizeof(buf),
                    "tc qdisc %s dev \"$IFACE\" parent 1:10 handle 10: "
                    "netem delay %.3fms loss %.3f%%\n",
                    class_verb, t.rtt / 2.0,
                    tick_loss(t, timeline.tick_ms) * 100.0);
      out += buf;
    }
    out += "tc qdisc del dev \"$IFACE\" root\n";
    return {{".sh", out}};
  }
};

}  // namespace

std::unique_ptr<EmuExporter> make_netem_exporter() {
  return std::make_unique<NetemExporter>();
}

}  // namespace wheels::emu
