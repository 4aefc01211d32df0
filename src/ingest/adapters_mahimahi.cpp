// Mahimahi packet-delivery-opportunity traces.
//
// The de-facto interchange format for cellular capacity records (Winstein et
// al., NSDI '13; also consumed by ERRANT, Pensieve, Puffer, ...): one line
// per MTU-sized (1500 B) delivery opportunity, holding the opportunity's
// integer millisecond timestamp; repeated timestamps mean several packets in
// the same millisecond, and timestamps are non-decreasing. The adapter
// windows the opportunity count over the simulator tick and converts it to
// Mbps — `count * 1500 B * 8 / tick` — producing a trace that is already on
// the tick grid. Windows are counted incrementally as timestamps stream by:
// the first timestamp anchors the first window (a recording that starts on
// an epoch-millisecond clock must not allocate one counter per window since
// 1970 — that dense vector is exactly the OOM this replaces), interior
// windows with no opportunities emit zero capacity (a recorded outage, not a
// gap), and parser state is O(1) in the trace length. Since the output grows
// with the time span, a timestamp more than 8 days after the first one (the
// paper's whole drive) fails with its line number. A Mahimahi file covers
// one direction; the paired up/down merge lives in the uplink-merge sink.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "ingest/adapters.hpp"
#include "ingest/trace_text.hpp"

namespace wheels::ingest {

namespace {

constexpr double kMtuBits = 1500.0 * 8.0;

/// The longest span a trace may cover, from its first timestamp: 8 days,
/// the length of the paper's whole drive (a full-scale campaign timeline
/// spans 7.25). Every window in the span is emitted, silent ones as zero
/// capacity, so a clock jump past this would emit without bound.
constexpr SimMillis kMaxSpanMs = 8LL * 24 * 3'600'000;

bool all_digits(const std::string& line) {
  if (line.empty()) return false;
  for (char ch : line) {
    if (ch < '0' || ch > '9') return false;
  }
  return true;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

class MahimahiAdapter final : public TraceAdapter {
 public:
  std::string_view name() const override { return "mahimahi"; }

  std::string_view description() const override {
    return "Mahimahi packet-delivery-opportunity trace (one integer ms "
           "timestamp per line, one 1500 B opportunity each)";
  }

  int sniff(const SniffInput& input) const override {
    if (ends_with(input.path, ".down") || ends_with(input.path, ".up") ||
        ends_with(input.path, ".pps")) {
      return 85;
    }
    if (input.head.empty()) return 0;
    for (const std::string& line : input.head) {
      if (!all_digits(line)) return 0;
    }
    return 70;
  }

  void parse_stream(LineSource& lines, const IngestOptions& options,
                    PointSink& sink) const override {
    const SimMillis tick = options.resample.tick_ms;
    if (tick <= 0) {
      throw std::runtime_error{"mahimahi: tick_ms must be > 0"};
    }
    if (options.default_rtt_ms <= 0.0) {
      throw std::runtime_error{"mahimahi: default rtt must be > 0"};
    }

    std::size_t pushed = 0;
    const auto emit_window = [&](SimMillis window, std::size_t count) {
      replay::TraceSample p;
      p.t = window * tick;
      p.cap_dl = static_cast<double>(count) * kMtuBits /
                 (static_cast<double>(tick) * 1e-3) / 1e6;
      p.cap_ul = p.cap_dl * options.mahimahi_ul_share;
      p.rtt = options.default_rtt_ms;
      p.tech = options.default_tech;
      sink.push(p);
      ++pushed;
    };

    LineRef line;
    SimMillis first = 0;  // valid once have_window
    SimMillis last = -1;
    SimMillis window = 0;  // current window index, valid once have_window
    std::size_t count = 0;
    bool have_window = false;
    while (lines.next(line)) {
      const SimMillis t = parse_trace_time_ms(line.text, line.number);
      if (t < last) trace_fail(line.number, "time going backwards");
      last = t;
      const SimMillis w = t / tick;
      if (!have_window) {
        // The first timestamp anchors windowing — no counters for the
        // (possibly billions of) empty windows before the recording.
        first = t;
        window = w;
        have_window = true;
      } else if (t - first > kMaxSpanMs) {
        trace_fail(line.number,
                   "time " + std::to_string(t) + " lies more than " +
                       std::to_string(kMaxSpanMs) +
                       " ms (8 days) after the trace's first time " +
                       std::to_string(first));
      }
      while (window < w) {
        emit_window(window, count);
        ++window;
        count = 0;
      }
      ++count;
    }
    if (!have_window) {
      trace_fail(lines.line_number(), "trace has no data rows");
    }
    emit_window(window, count);
    finish_stream(sink, pushed);
  }
};

/// Streaming positional merge of a paired (windowed) uplink trace: downlink
/// point i takes up[min(i, last)]'s downlink rate as its uplink capacity,
/// and when the uplink trace outlasts the downlink one the tail extends by
/// holding the downlink's final windowed rate, one tick per extra uplink
/// window on the downlink's grid (each file is windowed from its own first
/// timestamp, so the uplink's own stamps may lie on another grid). The
/// uplink side is already reduced to one point per covered window, so
/// holding it is O(recording duration / tick), not O(file bytes).
class MahimahiUplinkMerge final : public PointSink {
 public:
  MahimahiUplinkMerge(CanonicalTrace up, SimMillis tick, PointSink& inner)
      : up_(std::move(up)), tick_(tick), inner_(inner) {
    if (up_.points.empty()) {
      throw std::runtime_error{"mahimahi merge: empty trace"};
    }
  }

  void push(const replay::TraceSample& p) override {
    last_ = p;
    last_.cap_ul = up_.points[std::min(index_, up_.points.size() - 1)].cap_dl;
    ++index_;
    inner_.push(last_);
  }

  void finish() override {
    if (index_ == 0) {
      throw std::runtime_error{"mahimahi merge: empty trace"};
    }
    replay::TraceSample p = last_;
    for (std::size_t j = index_; j < up_.points.size(); ++j) {
      p.t += tick_;
      p.cap_ul = up_.points[j].cap_dl;
      inner_.push(p);
    }
    inner_.finish();
  }

 private:
  CanonicalTrace up_;
  SimMillis tick_;
  PointSink& inner_;
  replay::TraceSample last_{};
  std::size_t index_ = 0;
};

}  // namespace

std::unique_ptr<TraceAdapter> make_mahimahi_adapter() {
  return std::make_unique<MahimahiAdapter>();
}

std::unique_ptr<PointSink> make_mahimahi_uplink_merge(CanonicalTrace up,
                                                      SimMillis tick,
                                                      PointSink& inner) {
  return std::make_unique<MahimahiUplinkMerge>(std::move(up), tick, inner);
}

}  // namespace wheels::ingest
