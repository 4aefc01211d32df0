#include "service/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/json.hpp"
#include "measure/enum_names.hpp"
#include "transport/tcp_flow.hpp"

namespace wheels::service {

namespace {

using core::json::Doc;
using core::json::Value;

std::string u64_str(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string int_str(int v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%d", v);
  return buf;
}

std::string double_str(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out{'"'};
  out += core::json::escape(s);
  out += '"';
  return out;
}

/// Decode a JSON number that must be an integer in [min, max].
long long int_field(const Doc& doc, const Value& v, std::string_view key,
                    long long min, long long max) {
  const Value& n = doc.as(v, Value::Kind::Number,
                          "an integer for \"" + std::string{key} + "\"");
  const double d = n.number;
  if (!(d >= static_cast<double>(min)) || d > static_cast<double>(max) ||
      d != std::floor(d)) {
    doc.fail(n.line, "\"" + std::string{key} + "\" must be an integer >= " +
                         std::to_string(min));
  }
  return static_cast<long long>(d);
}

std::uint64_t u64_field(const Doc& doc, const Value& v, std::string_view key) {
  const Value& n = doc.as(v, Value::Kind::Number,
                          "an integer for \"" + std::string{key} + "\"");
  if (!(n.number >= 0.0) || n.number != std::floor(n.number)) {
    doc.fail(n.line,
             "\"" + std::string{key} + "\" must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(n.number);
}

std::vector<std::string> string_list(const Doc& doc, const Value& v,
                                     std::string_view key) {
  const Value& arr = doc.as(
      v, Value::Kind::Array, "an array of strings for \"" + std::string{key} +
                                 "\"");
  std::vector<std::string> out;
  out.reserve(arr.items.size());
  for (const Value& item : arr.items) {
    out.push_back(
        doc.as(item, Value::Kind::String, "a string in \"" +
                                              std::string{key} + "\"")
            .text);
  }
  return out;
}

transport::CcAlgo parse_cc(const Doc& doc, const Value& v) {
  if (v.text == transport::cc_algo_name(transport::CcAlgo::Cubic)) {
    return transport::CcAlgo::Cubic;
  }
  if (v.text == transport::cc_algo_name(transport::CcAlgo::Bbr)) {
    return transport::CcAlgo::Bbr;
  }
  doc.fail(v.line, "unknown congestion control \"" + v.text +
                       "\" (expected cubic|bbr)");
}

replay::HoldPolicy parse_interp(const Doc& doc, const Value& v) {
  if (v.text == "hold") return replay::HoldPolicy::Hold;
  if (v.text == "linear") return replay::HoldPolicy::Interpolate;
  doc.fail(v.line,
           "unknown interpolation \"" + v.text + "\" (expected hold|linear)");
}

/// Decode one job-object key into `spec`; false = the key does not apply to
/// this job kind.
bool apply_job_key(const Doc& doc, JobSpec& spec, const std::string& key,
                   const Value& val) {
  const JobKind kind = spec.kind;
  if (key == "seed") {
    spec.seed = u64_field(doc, val, key);
    return true;
  }
  if (kind == JobKind::Campaign) {
    if (key == "scale") {
      const Value& n = doc.as(val, Value::Kind::Number, "a number for "
                                                        "\"scale\"");
      if (!(n.number > 0.0)) doc.fail(n.line, "\"scale\" must be > 0");
      spec.scale = n.number;
      return true;
    }
    if (key == "apps") {
      spec.apps = doc.as(val, Value::Kind::Bool, "a bool for \"apps\"").boolean;
      return true;
    }
    if (key == "stride") {
      spec.stride = static_cast<int>(int_field(doc, val, key, 1, 1 << 20));
      return true;
    }
    if (key == "static") {
      spec.run_static =
          doc.as(val, Value::Kind::Bool, "a bool for \"static\"").boolean;
      return true;
    }
    if (key == "idle") {
      spec.idle = static_cast<int>(int_field(doc, val, key, 0, 1 << 20));
      return true;
    }
    if (key == "ues") {
      spec.ues = static_cast<int>(int_field(doc, val, key, 0, 1 << 24));
      return true;
    }
    if (key == "sched") {
      const Value& s =
          doc.as(val, Value::Kind::String, "a string for \"sched\"");
      auto k = ran::parse_scheduler_kind(s.text);
      if (!k) {
        doc.fail(s.line,
                 "unknown scheduler \"" + s.text + "\" (expected pf|rr)");
      }
      spec.scheduler = *k;
      return true;
    }
    return false;
  }
  if (kind == JobKind::Replay || kind == JobKind::Fleet) {
    if (key == "interp") {
      spec.policy = parse_interp(
          doc, doc.as(val, Value::Kind::String, "a string for \"interp\""));
      return true;
    }
  }
  if (kind == JobKind::Replay) {
    if (key == "bundle") {
      spec.bundles = {
          doc.as(val, Value::Kind::String, "a string for \"bundle\"").text};
      return true;
    }
    if (key == "cc") {
      spec.knobs.cc = parse_cc(
          doc, doc.as(val, Value::Kind::String, "a string for \"cc\""));
      return true;
    }
    if (key == "server") {
      const Value& s =
          doc.as(val, Value::Kind::String, "a string for \"server\"");
      try {
        spec.knobs.server = measure::names::parse_server_kind(s.text);
      } catch (const std::runtime_error&) {
        doc.fail(s.line,
                 "unknown server \"" + s.text + "\" (expected cloud|edge)");
      }
      return true;
    }
    if (key == "tier") {
      const Value& s =
          doc.as(val, Value::Kind::String, "a string for \"tier\"");
      try {
        spec.knobs.max_tier = measure::names::parse_technology(s.text);
      } catch (const std::runtime_error& e) {
        doc.fail(s.line, e.what());
      }
      return true;
    }
    return false;
  }
  if (kind == JobKind::Fleet) {
    if (key == "bundles") {
      spec.bundles = string_list(doc, val, key);
      return true;
    }
    if (key == "grid") {
      spec.grid = string_list(doc, val, key);
      return true;
    }
    return false;
  }
  // Synth.
  if (key == "profile") {
    spec.profile =
        doc.as(val, Value::Kind::String, "a string for \"profile\"").text;
    return true;
  }
  if (key == "cycles") {
    spec.cycles = static_cast<int>(int_field(doc, val, key, 1, 1 << 20));
    return true;
  }
  if (key == "spec") {
    spec.scenario =
        doc.as(val, Value::Kind::String, "a string for \"spec\"").text;
    return true;
  }
  return false;
}

JobSpec parse_job_spec(const Doc& doc, const Value& v) {
  doc.as(v, Value::Kind::Object, "a job object");
  const Value& kindv =
      doc.as(doc.get(v, "kind"), Value::Kind::String, "a job kind string");
  auto kind = parse_job_kind(kindv.text);
  if (!kind) {
    doc.fail(kindv.line, "unknown job kind \"" + kindv.text + "\"");
  }
  JobSpec spec;
  spec.kind = *kind;
  for (const auto& [key, val] : v.keys) {
    if (key == "kind") continue;
    if (!apply_job_key(doc, spec, key, val)) {
      doc.fail(val.line, "key \"" + key + "\" does not apply to " +
                             std::string{job_kind_name(*kind)} + " jobs");
    }
  }
  if (spec.kind == JobKind::Replay && spec.bundles.empty()) {
    doc.fail(v.line, "replay job needs \"bundle\"");
  }
  if (spec.kind == JobKind::Fleet && spec.bundles.empty()) {
    doc.fail(v.line, "fleet job needs \"bundles\"");
  }
  if (spec.kind == JobKind::Synth && spec.profile.empty()) {
    doc.fail(v.line, "synth job needs \"profile\"");
  }
  return spec;
}

/// Shared response-decoding preamble: parse, check the object shape, and
/// rethrow a server-reported error verbatim.
Value parse_response(const Doc& doc, const std::string& line) {
  Value root = doc.parse(line);
  doc.as(root, Value::Kind::Object, "a response object");
  if (!doc.flag(root, "ok")) {
    throw std::runtime_error{doc.str(root, "error")};
  }
  return root;
}

std::vector<std::pair<std::string, std::uint64_t>> parse_counters(
    const Doc& doc, const Value& root) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  if (const Value* obs = doc.find(root, "obs")) {
    doc.as(*obs, Value::Kind::Object, "an object for \"obs\"");
    for (const auto& [name, val] : obs->keys) {
      out.emplace_back(name, u64_field(doc, val, name));
    }
  }
  return out;
}

std::string render_counters(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  std::string out = "{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) out += ", ";
    out += quoted(counters[i].first) + ": " + u64_str(counters[i].second);
  }
  return out + "}";
}

ResultInfo parse_result_fields(const Doc& doc, const Value& v) {
  ResultInfo info;
  info.path = doc.str(v, "path");
  info.content_digest = doc.str(v, "content_digest");
  info.bytes = u64_field(doc, doc.get(v, "bytes"), "bytes");
  if (const Value* files = doc.find(v, "files")) {
    info.files = string_list(doc, *files, "files");
  }
  return info;
}

std::string render_result_fields(const ResultInfo& r, bool with_files) {
  std::string out = "\"path\": " + quoted(r.path) +
                    ", \"content_digest\": " + quoted(r.content_digest) +
                    ", \"bytes\": " + u64_str(r.bytes);
  if (with_files) {
    out += ", \"files\": [";
    for (std::size_t i = 0; i < r.files.size(); ++i) {
      if (i) out += ", ";
      out += quoted(r.files[i]);
    }
    out += "]";
  }
  return out;
}

}  // namespace

std::string_view job_kind_name(JobKind k) {
  switch (k) {
    case JobKind::Campaign: return "campaign";
    case JobKind::Replay: return "replay";
    case JobKind::Fleet: return "fleet";
    case JobKind::Synth: return "synth";
  }
  return "campaign";
}

std::optional<JobKind> parse_job_kind(std::string_view text) {
  for (JobKind k : {JobKind::Campaign, JobKind::Replay, JobKind::Fleet,
                    JobKind::Synth}) {
    if (text == job_kind_name(k)) return k;
  }
  return std::nullopt;
}

std::string_view job_state_name(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "queued";
}

std::optional<JobState> parse_job_state(std::string_view text) {
  for (JobState s : {JobState::Queued, JobState::Running, JobState::Done,
                     JobState::Failed, JobState::Cancelled}) {
    if (text == job_state_name(s)) return s;
  }
  return std::nullopt;
}

bool is_terminal(JobState s) {
  return s == JobState::Done || s == JobState::Failed ||
         s == JobState::Cancelled;
}

std::string JobSpec::to_json() const {
  std::string out = "{\"kind\": " + quoted(job_kind_name(kind)) +
                    ", \"seed\": " + u64_str(seed);
  switch (kind) {
    case JobKind::Campaign:
      out += ", \"scale\": " + double_str(scale) +
             ", \"apps\": " + (apps ? "true" : "false") +
             ", \"stride\": " + int_str(stride) +
             ", \"static\": " + (run_static ? "true" : "false") +
             ", \"idle\": " + int_str(idle) + ", \"ues\": " + int_str(ues) +
             ", \"sched\": " + quoted(ran::scheduler_kind_name(scheduler));
      break;
    case JobKind::Replay:
      out += ", \"bundle\": " + quoted(bundles.empty() ? "" : bundles[0]);
      if (knobs.cc) {
        out += ", \"cc\": " + quoted(transport::cc_algo_name(*knobs.cc));
      }
      if (knobs.server) {
        out += ", \"server\": " + quoted(net::server_kind_name(*knobs.server));
      }
      if (knobs.max_tier) {
        out += ", \"tier\": " + quoted(radio::technology_name(*knobs.max_tier));
      }
      out += ", \"interp\": ";
      out += policy == replay::HoldPolicy::Hold ? "\"hold\"" : "\"linear\"";
      break;
    case JobKind::Fleet: {
      out += ", \"bundles\": [";
      for (std::size_t i = 0; i < bundles.size(); ++i) {
        if (i) out += ", ";
        out += quoted(bundles[i]);
      }
      out += "], \"grid\": [";
      for (std::size_t i = 0; i < grid.size(); ++i) {
        if (i) out += ", ";
        out += quoted(grid[i]);
      }
      out += "], \"interp\": ";
      out += policy == replay::HoldPolicy::Hold ? "\"hold\"" : "\"linear\"";
      break;
    }
    case JobKind::Synth:
      out += ", \"profile\": " + quoted(profile) +
             ", \"cycles\": " + int_str(cycles) +
             ", \"spec\": " + quoted(scenario);
      break;
  }
  return out + "}";
}

void apply_job_arg(JobSpec& spec, const std::string& arg) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::runtime_error{"job argument \"" + arg +
                             "\" is not key=value"};
  }
  const std::string key = arg.substr(0, eq);
  const std::string value = arg.substr(eq + 1);
  // Re-use the strict JSON field decoding: wrap the value in the right JSON
  // shape and run it through apply_job_key under a CLI-specific prefix.
  const Doc doc{"job argument \"" + arg + "\""};
  std::string json;
  if (key == "scale" || key == "seed" || key == "stride" || key == "idle" ||
      key == "ues" || key == "cycles") {
    json = value;  // numeric
  } else if (key == "apps" || key == "static") {
    json = value == "1" ? "true" : value == "0" ? "false" : value;
  } else if (key == "bundle" && spec.kind == JobKind::Fleet) {
    // Fleet jobs take repeated bundle= args that accumulate.
    spec.bundles.push_back(value);
    return;
  } else if (key == "grid") {
    spec.grid.push_back(value);
    return;
  } else {
    json = quoted(value);
  }
  Value v;
  try {
    v = doc.parse(json);
  } catch (const std::runtime_error&) {
    throw std::runtime_error{"job argument \"" + arg +
                             "\": malformed value"};
  }
  if (!apply_job_key(doc, spec, key, v)) {
    throw std::runtime_error{"unknown job argument \"" + key + "\" for " +
                             std::string{job_kind_name(spec.kind)} + " jobs"};
  }
}

Request parse_request(const std::string& line) {
  const Doc doc{"protocol"};
  const Value root = doc.parse(line);
  doc.as(root, Value::Kind::Object, "a request object");
  const Value& ver =
      doc.as(doc.get(root, "v"), Value::Kind::Number, "a version number");
  if (ver.number != static_cast<double>(kProtocolVersion)) {
    doc.fail(ver.line, "unsupported protocol version " + double_str(ver.number) +
                           " (this daemon speaks " +
                           int_str(kProtocolVersion) + ")");
  }
  const Value& opv =
      doc.as(doc.get(root, "op"), Value::Kind::String, "an op string");
  Request req;
  bool takes_id = false;
  bool takes_job = false;
  if (opv.text == "submit") {
    req.op = Request::Op::Submit;
    takes_job = true;
  } else if (opv.text == "status") {
    req.op = Request::Op::Status;
    takes_id = true;
  } else if (opv.text == "watch") {
    req.op = Request::Op::Watch;
    takes_id = true;
  } else if (opv.text == "result") {
    req.op = Request::Op::Result;
    takes_id = true;
  } else if (opv.text == "cancel") {
    req.op = Request::Op::Cancel;
    takes_id = true;
  } else if (opv.text == "stats") {
    req.op = Request::Op::Stats;
  } else if (opv.text == "shutdown") {
    req.op = Request::Op::Shutdown;
  } else {
    doc.fail(opv.line, "unknown op \"" + opv.text + "\"");
  }
  for (const auto& [key, val] : root.keys) {
    if (key == "v" || key == "op") continue;
    if (key == "id" && takes_id) continue;
    if (key == "job" && takes_job) continue;
    doc.fail(val.line, "unknown key \"" + key + "\" for op \"" + opv.text +
                           "\"");
  }
  if (takes_id) req.id = u64_field(doc, doc.get(root, "id"), "id");
  if (takes_job) req.job = parse_job_spec(doc, doc.get(root, "job"));
  return req;
}

std::string render_error(const std::string& message) {
  return "{\"ok\": false, \"error\": " + quoted(message) + "}";
}

std::string render_status(const JobStatus& status) {
  std::string out = "{\"ok\": true, \"id\": " + u64_str(status.id) +
                    ", \"state\": " + quoted(job_state_name(status.state)) +
                    ", \"stage\": " + quoted(status.stage) +
                    ", \"cache_hit\": " +
                    (status.cache_hit ? "true" : "false") +
                    ", \"error\": " + quoted(status.error);
  if (status.result) {
    out += ", \"result\": {" + render_result_fields(*status.result, false) +
           "}";
  }
  return out + ", \"obs\": " + render_counters(status.counters) + "}";
}

std::string render_result(std::uint64_t id, bool cache_hit,
                          const ResultInfo& result) {
  return "{\"ok\": true, \"id\": " + u64_str(id) + ", \"cache_hit\": " +
         (cache_hit ? "true" : "false") + ", " +
         render_result_fields(result, true) + "}";
}

std::string render_stats(const StatsInfo& stats) {
  std::string out = "{\"ok\": true, \"jobs\": {";
  bool first = true;
  for (const auto& [state, count] : stats.jobs_by_state) {
    if (!first) out += ", ";
    first = false;
    out += quoted(state) + ": " + u64_str(count);
  }
  out += "}, \"cache\": {\"entries\": " + u64_str(stats.cache_entries) +
         ", \"bytes\": " + u64_str(stats.cache_bytes) +
         ", \"max_bytes\": " + u64_str(stats.cache_max_bytes) +
         ", \"warnings\": [";
  for (std::size_t i = 0; i < stats.cache_warnings.size(); ++i) {
    if (i) out += ", ";
    out += quoted(stats.cache_warnings[i]);
  }
  return out + "]}, \"obs\": " + render_counters(stats.counters) + "}";
}

std::string render_ok() { return "{\"ok\": true}"; }

JobStatus parse_status_response(const std::string& line) {
  const Doc doc{"response"};
  const Value root = parse_response(doc, line);
  JobStatus status;
  status.id = u64_field(doc, doc.get(root, "id"), "id");
  const Value& statev =
      doc.as(doc.get(root, "state"), Value::Kind::String, "a state string");
  auto state = parse_job_state(statev.text);
  if (!state) doc.fail(statev.line, "unknown state \"" + statev.text + "\"");
  status.state = *state;
  status.stage = doc.str(root, "stage");
  status.cache_hit = doc.flag(root, "cache_hit");
  status.error = doc.str(root, "error");
  if (const Value* result = doc.find(root, "result")) {
    doc.as(*result, Value::Kind::Object, "an object for \"result\"");
    status.result = parse_result_fields(doc, *result);
  }
  status.counters = parse_counters(doc, root);
  return status;
}

ResultInfo parse_result_response(const std::string& line, bool* cache_hit) {
  const Doc doc{"response"};
  const Value root = parse_response(doc, line);
  if (cache_hit) *cache_hit = doc.flag(root, "cache_hit");
  return parse_result_fields(doc, root);
}

StatsInfo parse_stats_response(const std::string& line) {
  const Doc doc{"response"};
  const Value root = parse_response(doc, line);
  StatsInfo stats;
  const Value& jobs =
      doc.as(doc.get(root, "jobs"), Value::Kind::Object, "a jobs object");
  for (const auto& [state, count] : jobs.keys) {
    stats.jobs_by_state[state] = u64_field(doc, count, state);
  }
  const Value& cache =
      doc.as(doc.get(root, "cache"), Value::Kind::Object, "a cache object");
  stats.cache_entries = u64_field(doc, doc.get(cache, "entries"), "entries");
  stats.cache_bytes = u64_field(doc, doc.get(cache, "bytes"), "bytes");
  stats.cache_max_bytes =
      u64_field(doc, doc.get(cache, "max_bytes"), "max_bytes");
  stats.cache_warnings = string_list(doc, doc.get(cache, "warnings"),
                                     "warnings");
  stats.counters = parse_counters(doc, root);
  return stats;
}

void parse_ok_response(const std::string& line) {
  const Doc doc{"response"};
  parse_response(doc, line);
}

}  // namespace wheels::service
