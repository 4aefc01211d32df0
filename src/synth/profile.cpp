#include "synth/profile.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/json.hpp"
#include "core/obs/metrics.hpp"
#include "measure/csv_export.hpp"
#include "measure/enum_names.hpp"

namespace wheels::synth {

namespace {

// ---------------------------------------------------------------------------
// Writer. Doubles go through measure::csv_double (max_digits10), so
// parse_profile(to_json()) reproduces every double bit-exactly.

void write_doubles(std::ostream& os, const std::vector<double>& xs) {
  os << '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) os << ", ";
    os << measure::csv_double(xs[i]);
  }
  os << ']';
}

void write_matrix(std::ostream& os, std::string_view indent,
                  const std::vector<std::vector<double>>& m) {
  os << "[\n";
  for (std::size_t i = 0; i < m.size(); ++i) {
    os << indent << "  ";
    write_doubles(os, m[i]);
    os << (i + 1 < m.size() ? ",\n" : "\n");
  }
  os << indent << ']';
}

void write_emissions(std::ostream& os, std::string_view indent,
                     const std::vector<EmissionModel>& em) {
  os << "[\n";
  for (std::size_t i = 0; i < em.size(); ++i) {
    os << indent << "  ";
    write_doubles(os, em[i].points);
    os << (i + 1 < em.size() ? ",\n" : "\n");
  }
  os << indent << ']';
}

void write_chain(std::ostream& os, std::string_view indent,
                 const RegimeChain& chain) {
  os << "{\n";
  os << indent << "  \"upper_edges\": ";
  write_doubles(os, chain.upper_edges);
  os << ",\n" << indent << "  \"occupancy\": ";
  write_doubles(os, chain.occupancy);
  os << ",\n" << indent << "  \"transitions\": ";
  write_matrix(os, std::string{indent} + "  ", chain.transitions);
  os << ",\n" << indent << "  \"emissions\": ";
  write_emissions(os, std::string{indent} + "  ", chain.emissions);
  os << '\n' << indent << '}';
}

// ---------------------------------------------------------------------------
// Parser: the shared strict line-tracking JSON reader (core::json), bound to
// the "profile: line N: ..." error prefix — the satellite contract that
// makes a hand-edited or version-skewed profile debuggable. The wrappers
// below keep the decode code reading like a grammar.

using JsonValue = core::json::Value;

const core::json::Doc& doc() {
  static const core::json::Doc d{"profile"};
  return d;
}

[[noreturn]] void fail(int line, const std::string& msg) {
  doc().fail(line, msg);
}

const JsonValue& get(const JsonValue& obj, std::string_view key) {
  return doc().get(obj, key);
}

const JsonValue& as(const JsonValue& v, JsonValue::Kind kind,
                    std::string_view what) {
  return doc().as(v, kind, std::string{what});
}

double num(const JsonValue& obj, std::string_view key) {
  return doc().num(obj, key);
}

std::string str(const JsonValue& obj, std::string_view key) {
  return doc().str(obj, key);
}

std::vector<double> doubles(const JsonValue& v) { return doc().doubles(v); }

std::vector<std::vector<double>> matrix(const JsonValue& v, std::size_t rows,
                                        std::size_t cols,
                                        std::string_view what) {
  as(v, JsonValue::Kind::Array, "an array for " + std::string{what});
  if (v.items.size() != rows) {
    fail(v.line, std::string{what} + ": expected " + std::to_string(rows) +
                     " rows, got " + std::to_string(v.items.size()));
  }
  std::vector<std::vector<double>> out;
  out.reserve(rows);
  for (const JsonValue& row : v.items) {
    std::vector<double> r = doubles(row);
    if (r.size() != cols) {
      fail(row.line, std::string{what} + ": expected " + std::to_string(cols) +
                         " columns, got " + std::to_string(r.size()));
    }
    out.push_back(std::move(r));
  }
  return out;
}

radio::Carrier parse_carrier_at(const JsonValue& obj) {
  const JsonValue& v = get(obj, "carrier");
  as(v, JsonValue::Kind::String, "a string for \"carrier\"");
  try {
    return measure::names::parse_carrier(v.text);
  } catch (const std::exception& e) {
    fail(v.line, e.what());
  }
}

radio::Technology parse_tech_at(const JsonValue& v) {
  as(v, JsonValue::Kind::String, "a technology name");
  try {
    return measure::names::parse_technology(v.text);
  } catch (const std::exception& e) {
    fail(v.line, e.what());
  }
}

void check_stochastic_rows(const JsonValue& where,
                           const std::vector<std::vector<double>>& m,
                           std::string_view what) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    double sum = 0.0;
    for (double p : m[i]) {
      if (p < 0.0 || p > 1.0 || !std::isfinite(p)) {
        fail(where.line, std::string{what} + ": row " + std::to_string(i) +
                             " has a probability outside [0, 1]");
      }
      sum += p;
    }
    // An all-zero row marks a regime the recording never visited; any
    // visited row must be (numerically) stochastic.
    if (sum != 0.0 && std::abs(sum - 1.0) > 1e-9) {
      fail(where.line, std::string{what} + ": row " + std::to_string(i) +
                           " sums to " + std::to_string(sum) + ", not 1");
    }
  }
}

RegimeChain parse_chain(const JsonValue& v, std::string_view what) {
  as(v, JsonValue::Kind::Object, "an object for " + std::string{what});
  RegimeChain chain;
  chain.upper_edges = doubles(get(v, "upper_edges"));
  chain.occupancy = doubles(get(v, "occupancy"));
  const std::size_t regimes = chain.occupancy.size();
  if (regimes == 0) fail(v.line, std::string{what} + ": no regimes");
  if (chain.upper_edges.size() + 1 != regimes) {
    fail(get(v, "upper_edges").line,
         std::string{what} + ": " + std::to_string(regimes) +
             " regimes need " + std::to_string(regimes - 1) + " edges, got " +
             std::to_string(chain.upper_edges.size()));
  }
  const JsonValue& tr = get(v, "transitions");
  chain.transitions =
      matrix(tr, regimes, regimes, std::string{what} + ".transitions");
  check_stochastic_rows(tr, chain.transitions,
                        std::string{what} + ".transitions");
  const JsonValue& em = get(v, "emissions");
  as(em, JsonValue::Kind::Array, "an array for emissions");
  if (em.items.size() != regimes) {
    fail(em.line, std::string{what} + ".emissions: expected " +
                      std::to_string(regimes) + " entries, got " +
                      std::to_string(em.items.size()));
  }
  for (const JsonValue& e : em.items) {
    EmissionModel model;
    model.points = doubles(e);
    if (model.points.size() == 1) {
      fail(e.line, std::string{what} +
                       ".emissions: a non-empty emission needs >= 2 points");
    }
    chain.emissions.push_back(std::move(model));
  }
  for (std::size_t i = 0; i < regimes; ++i) {
    if (chain.occupancy[i] > 0.0 && chain.emissions[i].empty()) {
      fail(em.line, std::string{what} + ": regime " + std::to_string(i) +
                        " is occupied but has no emission model");
    }
  }
  return chain;
}

}  // namespace

const CarrierMix* SynthProfile::find_mix(radio::Carrier c) const {
  for (const CarrierMix& m : mixes) {
    if (m.carrier == c) return &m;
  }
  return nullptr;
}

const StreamModel* SynthProfile::find_stream(radio::Carrier c,
                                             radio::Technology t) const {
  for (const StreamModel& s : streams) {
    if (s.carrier == c && s.tech == t) return &s;
  }
  return nullptr;
}

std::string SynthProfile::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"version\": " << version << ",\n";
  os << "  \"tick_ms\": " << tick_ms << ",\n";
  os << "  \"outage_mbps\": " << measure::csv_double(outage_mbps) << ",\n";
  os << "  \"source_digest\": \"" << core::json::escape(source_digest)
     << "\",\n";
  os << "  \"mixes\": [\n";
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const CarrierMix& m = mixes[i];
    os << "    {\n";
    os << "      \"carrier\": \"" << measure::names::to_name(m.carrier)
       << "\",\n";
    os << "      \"techs\": [";
    for (std::size_t j = 0; j < m.techs.size(); ++j) {
      if (j) os << ", ";
      os << '"' << measure::names::to_name(m.techs[j]) << '"';
    }
    os << "],\n      \"occupancy\": ";
    write_doubles(os, m.occupancy);
    os << ",\n      \"transitions\": ";
    write_matrix(os, "      ", m.transitions);
    os << "\n    }" << (i + 1 < mixes.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  os << "  \"streams\": [\n";
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const StreamModel& s = streams[i];
    os << "    {\n";
    os << "      \"carrier\": \"" << measure::names::to_name(s.carrier)
       << "\",\n";
    os << "      \"tech\": \"" << measure::names::to_name(s.tech) << "\",\n";
    os << "      \"n_ticks\": " << s.n_ticks << ",\n";
    os << "      \"n_rtt\": " << s.n_rtt << ",\n";
    os << "      \"outage_fraction\": " << measure::csv_double(s.outage_fraction)
       << ",\n";
    os << "      \"mean_outage_ticks\": "
       << measure::csv_double(s.mean_outage_ticks) << ",\n";
    os << "      \"handover_rate\": " << measure::csv_double(s.handover_rate)
       << ",\n";
    os << "      \"dl\": ";
    write_chain(os, "      ", s.dl);
    os << ",\n      \"ul\": ";
    write_emissions(os, "      ", s.ul);
    os << ",\n      \"rtt\": ";
    write_chain(os, "      ", s.rtt);
    os << "\n    }" << (i + 1 < streams.size() ? ",\n" : "\n");
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

SynthProfile parse_profile(std::string_view json) {
  const JsonValue root = doc().parse(json);
  as(root, JsonValue::Kind::Object, "a profile object");

  SynthProfile p;
  const JsonValue& version = get(root, "version");
  if (const std::uint64_t v = doc().u64(version, "version");
      v != kProfileVersion) {
    fail(version.line, "unsupported profile version " + std::to_string(v) +
                           " (this build reads " +
                           std::to_string(kProfileVersion) + ")");
  }
  const JsonValue& tick = get(root, "tick_ms");
  const std::uint64_t tick_ms = doc().u64(tick, "tick_ms");
  constexpr auto kMaxTick = std::numeric_limits<SimMillis>::max();
  if (tick_ms == 0 || tick_ms > static_cast<std::uint64_t>(kMaxTick)) {
    fail(tick.line,
         "tick_ms must be in [1, " + std::to_string(kMaxTick) + "]");
  }
  p.tick_ms = static_cast<SimMillis>(tick_ms);
  p.outage_mbps = num(root, "outage_mbps");
  p.source_digest = str(root, "source_digest");

  const JsonValue& mixes = get(root, "mixes");
  as(mixes, JsonValue::Kind::Array, "an array for \"mixes\"");
  for (const JsonValue& mv : mixes.items) {
    as(mv, JsonValue::Kind::Object, "a mix object");
    CarrierMix mix;
    mix.carrier = parse_carrier_at(mv);
    const JsonValue& techs = get(mv, "techs");
    as(techs, JsonValue::Kind::Array, "an array for \"techs\"");
    for (const JsonValue& tv : techs.items) {
      mix.techs.push_back(parse_tech_at(tv));
    }
    if (mix.techs.empty()) fail(techs.line, "mix has no techs");
    mix.occupancy = doubles(get(mv, "occupancy"));
    if (mix.occupancy.size() != mix.techs.size()) {
      fail(get(mv, "occupancy").line,
           "mix occupancy size " + std::to_string(mix.occupancy.size()) +
               " != techs size " + std::to_string(mix.techs.size()));
    }
    const JsonValue& tr = get(mv, "transitions");
    mix.transitions =
        matrix(tr, mix.techs.size(), mix.techs.size(), "mix.transitions");
    check_stochastic_rows(tr, mix.transitions, "mix.transitions");
    for (const CarrierMix& seen : p.mixes) {
      if (seen.carrier == mix.carrier) {
        fail(mv.line, "duplicate mix for carrier " +
                          std::string{measure::names::to_name(mix.carrier)});
      }
    }
    p.mixes.push_back(std::move(mix));
  }

  const JsonValue& streams = get(root, "streams");
  as(streams, JsonValue::Kind::Array, "an array for \"streams\"");
  for (const JsonValue& sv : streams.items) {
    as(sv, JsonValue::Kind::Object, "a stream object");
    StreamModel s;
    s.carrier = parse_carrier_at(sv);
    s.tech = parse_tech_at(get(sv, "tech"));
    s.n_ticks = doc().u64(get(sv, "n_ticks"), "n_ticks");
    s.n_rtt = doc().u64(get(sv, "n_rtt"), "n_rtt");
    s.outage_fraction = num(sv, "outage_fraction");
    s.mean_outage_ticks = num(sv, "mean_outage_ticks");
    s.handover_rate = num(sv, "handover_rate");
    s.dl = parse_chain(get(sv, "dl"), "dl");
    const JsonValue& ul = get(sv, "ul");
    as(ul, JsonValue::Kind::Array, "an array for \"ul\"");
    if (ul.items.size() != s.dl.regimes()) {
      fail(ul.line, "ul: expected one emission per dl regime (" +
                        std::to_string(s.dl.regimes()) + "), got " +
                        std::to_string(ul.items.size()));
    }
    for (const JsonValue& e : ul.items) {
      EmissionModel model;
      model.points = doubles(e);
      if (model.points.size() == 1) {
        fail(e.line, "ul: a non-empty emission needs >= 2 points");
      }
      s.ul.push_back(std::move(model));
    }
    s.rtt = parse_chain(get(sv, "rtt"), "rtt");
    if (p.find_stream(s.carrier, s.tech) != nullptr) {
      fail(sv.line,
           "duplicate stream " +
               std::string{measure::names::to_name(s.carrier)} + "/" +
               std::string{measure::names::to_name(s.tech)});
    }
    p.streams.push_back(std::move(s));
  }

  // Every mix tech must have a stream model behind it, or sampling that
  // tech would have nothing to emit.
  for (const CarrierMix& mix : p.mixes) {
    for (radio::Technology t : mix.techs) {
      if (p.find_stream(mix.carrier, t) == nullptr) {
        fail(get(root, "mixes").line,
             "mix for " + std::string{measure::names::to_name(mix.carrier)} +
                 " names tech " +
                 std::string{measure::names::to_name(t)} +
                 " with no fitted stream");
      }
    }
  }
  return p;
}

void write_profile(const SynthProfile& profile, const std::string& path) {
  static const core::obs::Counter profiles_written{"synth.profiles_written"};
  std::ofstream os{path};
  if (!os) throw std::runtime_error{path + ": cannot open for writing"};
  os << profile.to_json();
  if (!os) throw std::runtime_error{path + ": write failed"};
  profiles_written.add();
}

SynthProfile read_profile(const std::string& path) {
  std::ifstream is{path};
  if (!is) throw std::runtime_error{path + ": cannot open"};
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    return parse_profile(buf.str());
  } catch (const std::exception& e) {
    throw std::runtime_error{path + ": " + e.what()};
  }
}

}  // namespace wheels::synth
