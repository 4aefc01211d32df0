#include "service/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "core/json.hpp"
#include "measure/enum_names.hpp"
#include "transport/tcp_flow.hpp"

namespace wheels::service {

namespace {

using core::json::Doc;
using core::json::Value;

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

std::string quoted_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ", ";
    out += quoted(item);
  }
  return out + "]";
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

// --- The job keys ---------------------------------------------------------
//
// Every job key is declared once, in kJobKeys; the request parser,
// JobSpec::to_json and apply_job_arg all read it.

constexpr unsigned bit(JobKind k) { return 1u << static_cast<unsigned>(k); }
constexpr unsigned kCampaign = bit(JobKind::Campaign);
constexpr unsigned kReplay = bit(JobKind::Replay);
constexpr unsigned kFleet = bit(JobKind::Fleet);
constexpr unsigned kSynth = bit(JobKind::Synth);

// A bare member pointer is a field of that JSON type: an exact unsigned
// integer (Doc::u64), a number in (0, 1], a bool, a string or an array of
// strings.
using U64 = std::uint64_t JobSpec::*;
using Fraction = double JobSpec::*;
using Flag = bool JobSpec::*;
using Text = std::string JobSpec::*;
using List = std::vector<std::string> JobSpec::*;
/// An integer in [min, max].
struct IntIn {
  int JobSpec::*member;
  int min;
  int max;
};
/// One string, kept as the one-element list `member` (a replay's bundle).
struct OneOf {
  std::vector<std::string> JobSpec::*member;
};
/// A value given by name. `set` throws the message for an unknown name;
/// `get` returns "" for an unset optional knob, which to_json leaves out.
struct Named {
  void (*set)(JobSpec&, const std::string&);
  std::string_view (*get)(const JobSpec&);
};

struct JobKey {
  std::string_view name;  // in JSON and in wheelsctl's key=value
  unsigned kinds;         // the job kinds it applies to
  unsigned required;      // the kinds that must set it off its default
  std::variant<U64, Fraction, Flag, IntIn, Text, List, OneOf, Named> field;
};

/// In to_json's order: a kind's keys in this order are its canonical JSON.
constexpr JobKey kJobKeys[] = {
    {"seed", kCampaign | kReplay | kFleet | kSynth, 0, &JobSpec::seed},
    {"scale", kCampaign, 0, &JobSpec::scale},
    {"apps", kCampaign, 0, &JobSpec::apps},
    {"stride", kCampaign, 0, IntIn{&JobSpec::stride, 1, 1 << 20}},
    {"static", kCampaign, 0, &JobSpec::run_static},
    {"idle", kCampaign, 0, IntIn{&JobSpec::idle, 0, 1 << 20}},
    {"ues", kCampaign, 0, IntIn{&JobSpec::ues, 0, 1 << 24}},
    {"sched", kCampaign, 0,
     Named{[](JobSpec& s, const std::string& text) {
             const auto k = ran::parse_scheduler_kind(text);
             if (!k) {
               throw std::runtime_error{"unknown scheduler \"" + text +
                                        "\" (expected pf|rr)"};
             }
             s.scheduler = *k;
           },
           [](const JobSpec& s) {
             return ran::scheduler_kind_name(s.scheduler);
           }}},
    {"bundle", kReplay, kReplay, OneOf{&JobSpec::bundles}},
    {"cc", kReplay, 0,
     Named{[](JobSpec& s, const std::string& text) {
             s.knobs.cc = transport::parse_cc_algo(text);
           },
           [](const JobSpec& s) -> std::string_view {
             return s.knobs.cc ? transport::cc_algo_name(*s.knobs.cc) : "";
           }}},
    {"server", kReplay, 0,
     Named{[](JobSpec& s, const std::string& text) {
             s.knobs.server = measure::names::parse_server_kind(text);
           },
           [](const JobSpec& s) -> std::string_view {
             return s.knobs.server ? net::server_kind_name(*s.knobs.server)
                                   : "";
           }}},
    {"tier", kReplay, 0,
     Named{[](JobSpec& s, const std::string& text) {
             s.knobs.max_tier = measure::names::parse_technology(text);
           },
           [](const JobSpec& s) -> std::string_view {
             return s.knobs.max_tier
                        ? radio::technology_name(*s.knobs.max_tier)
                        : "";
           }}},
    {"bundles", kFleet, kFleet, &JobSpec::bundles},
    {"grid", kFleet, 0, &JobSpec::grid},
    {"interp", kReplay | kFleet, 0,
     Named{[](JobSpec& s, const std::string& text) {
             s.policy = replay::parse_hold_policy(text);
           },
           [](const JobSpec& s) {
             return replay::hold_policy_name(s.policy);
           }}},
    {"profile", kSynth, kSynth, &JobSpec::profile},
    {"cycles", kSynth, 0, IntIn{&JobSpec::cycles, 1, 1 << 20}},
    {"spec", kSynth, 0, &JobSpec::scenario},
};

/// The key `name` of `kind` jobs, or nullptr when it does not apply.
const JobKey* find_key(std::string_view name, JobKind kind) {
  for (const JobKey& key : kJobKeys) {
    if (key.name == name && (key.kinds & bit(kind))) return &key;
  }
  return nullptr;
}

/// Decode `val` into the field `key` names.
void decode(const Doc& doc, const JobKey& key, const Value& val,
            JobSpec& spec) {
  const std::string name{key.name};
  const auto text = [&]() -> const Value& {
    return doc.as(val, Value::Kind::String, "a string for \"" + name + "\"");
  };
  std::visit(
      [&](const auto& f) {
        using F = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<F, U64>) {
          spec.*f = doc.u64(val, name);
        } else if constexpr (std::is_same_v<F, Fraction>) {
          const Value& n = doc.as(val, Value::Kind::Number,
                                  "a number for \"" + name + "\"");
          if (!(n.number > 0.0 && n.number <= 1.0)) {
            doc.fail(n.line, "\"" + name + "\" must be in (0, 1]");
          }
          spec.*f = n.number;
        } else if constexpr (std::is_same_v<F, Flag>) {
          spec.*f = doc.as(val, Value::Kind::Bool,
                           "a bool for \"" + name + "\"")
                        .boolean;
        } else if constexpr (std::is_same_v<F, IntIn>) {
          const Value& n = doc.as(val, Value::Kind::Number,
                                  "an integer for \"" + name + "\"");
          if (!(n.number >= f.min) || n.number > f.max ||
              n.number != std::floor(n.number)) {
            doc.fail(n.line, "\"" + name + "\" must be an integer >= " +
                                 std::to_string(f.min));
          }
          spec.*f.member = static_cast<int>(n.number);
        } else if constexpr (std::is_same_v<F, Text>) {
          spec.*f = text().text;
        } else if constexpr (std::is_same_v<F, List>) {
          spec.*f = string_list(doc, val, name);
        } else if constexpr (std::is_same_v<F, OneOf>) {
          spec.*f.member = {text().text};
        } else {
          const Value& s = text();
          try {
            f.set(spec, s.text);
          } catch (const std::runtime_error& e) {
            doc.fail(s.line, e.what());
          }
        }
      },
      key.field);
}

/// The JSON of `key`'s field in `spec`; "" leaves the key out.
std::string render(const JobSpec& spec, const JobKey& key) {
  return std::visit(
      [&](const auto& f) -> std::string {
        using F = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<F, U64>) {
          return std::to_string(spec.*f);
        } else if constexpr (std::is_same_v<F, Fraction>) {
          return double_str(spec.*f);
        } else if constexpr (std::is_same_v<F, Flag>) {
          return spec.*f ? "true" : "false";
        } else if constexpr (std::is_same_v<F, IntIn>) {
          return std::to_string(spec.*f.member);
        } else if constexpr (std::is_same_v<F, Text>) {
          return quoted(spec.*f);
        } else if constexpr (std::is_same_v<F, List>) {
          return quoted_list(spec.*f);
        } else if constexpr (std::is_same_v<F, OneOf>) {
          const auto& items = spec.*f.member;
          return quoted(items.empty() ? "" : items[0]);
        } else {
          const std::string_view name = f.get(spec);
          return name.empty() ? "" : quoted(name);
        }
      },
      key.field);
}

JobSpec parse_job_spec(const Doc& doc, const Value& v) {
  doc.as(v, Value::Kind::Object, "a job object");
  const Value& kindv =
      doc.as(doc.get(v, "kind"), Value::Kind::String, "a job kind string");
  auto kind = parse_job_kind(kindv.text);
  if (!kind) {
    doc.fail(kindv.line, "unknown job kind \"" + kindv.text + "\"");
  }
  const std::string kind_name{job_kind_name(*kind)};
  JobSpec spec;
  spec.kind = *kind;
  for (const auto& [name, val] : v.keys) {
    if (name == "kind") continue;
    const JobKey* key = find_key(name, *kind);
    if (!key) {
      doc.fail(val.line, "key \"" + name + "\" does not apply to " +
                             kind_name + " jobs");
    }
    decode(doc, *key, val, spec);
  }
  // A required key must move its field off the default: no empty bundle,
  // bundle list or profile.
  for (const JobKey& key : kJobKeys) {
    if ((key.required & bit(*kind)) &&
        render(spec, key) == render(JobSpec{}, key)) {
      doc.fail(v.line, kind_name + " job needs \"" + std::string{key.name} +
                           "\"");
    }
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
      out.emplace_back(name, doc.u64(val, name));
    }
  }
  return out;
}

std::string render_counters(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  std::string out = "{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) out += ", ";
    out += quoted(counters[i].first) + ": " + std::to_string(counters[i].second);
  }
  return out + "}";
}

ResultInfo parse_result_fields(const Doc& doc, const Value& v) {
  ResultInfo info;
  info.path = doc.str(v, "path");
  info.content_digest = doc.str(v, "content_digest");
  info.bytes = doc.u64(doc.get(v, "bytes"), "bytes");
  if (const Value* files = doc.find(v, "files")) {
    info.files = string_list(doc, *files, "files");
  }
  return info;
}

std::string render_result_fields(const ResultInfo& r, bool with_files) {
  std::string out = "\"path\": " + quoted(r.path) +
                    ", \"content_digest\": " + quoted(r.content_digest) +
                    ", \"bytes\": " + std::to_string(r.bytes);
  if (with_files) out += ", \"files\": " + quoted_list(r.files);
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
  std::string out = "{\"kind\": " + quoted(job_kind_name(kind));
  for (const JobKey& key : kJobKeys) {
    if (!(key.kinds & bit(kind))) continue;
    const std::string value = render(*this, key);
    if (!value.empty()) out += ", " + quoted(key.name) + ": " + value;
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
  // A fleet's repeated bundle= arguments accumulate into its bundles.
  const JobKey* jk = find_key(
      spec.kind == JobKind::Fleet && key == "bundle" ? "bundles" : key,
      spec.kind);
  if (!jk) {
    throw std::runtime_error{"unknown job argument \"" + key + "\" for " +
                             std::string{job_kind_name(spec.kind)} + " jobs"};
  }
  if (const auto* list = std::get_if<List>(&jk->field)) {
    (spec.**list).push_back(value);  // one item per argument
    return;
  }
  // Spell the value as the JSON a request carries (numbers bare, 1/0 as
  // booleans, the rest quoted) and decode it as the parser does.
  std::string json = quoted(value);
  if (std::holds_alternative<U64>(jk->field) ||
      std::holds_alternative<Fraction>(jk->field) ||
      std::holds_alternative<IntIn>(jk->field)) {
    json = value;
  } else if (std::holds_alternative<Flag>(jk->field)) {
    json = value == "1" ? "true" : value == "0" ? "false" : value;
  }
  const Doc doc{"job argument \"" + arg + "\""};
  Value v;
  try {
    v = doc.parse(json);
  } catch (const std::runtime_error&) {
    throw std::runtime_error{"job argument \"" + arg +
                             "\": malformed value"};
  }
  decode(doc, *jk, v, spec);
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
                           std::to_string(kProtocolVersion) + ")");
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
  if (takes_id) req.id = doc.u64(doc.get(root, "id"), "id");
  if (takes_job) req.job = parse_job_spec(doc, doc.get(root, "job"));
  return req;
}

std::string render_error(const std::string& message) {
  return "{\"ok\": false, \"error\": " + quoted(message) + "}";
}

std::string render_status(const JobStatus& status) {
  std::string out = "{\"ok\": true, \"id\": " + std::to_string(status.id) +
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
  return "{\"ok\": true, \"id\": " + std::to_string(id) + ", \"cache_hit\": " +
         (cache_hit ? "true" : "false") + ", " +
         render_result_fields(result, true) + "}";
}

std::string render_stats(const StatsInfo& stats) {
  std::string out = "{\"ok\": true, \"jobs\": {";
  bool first = true;
  for (const auto& [state, count] : stats.jobs_by_state) {
    if (!first) out += ", ";
    first = false;
    out += quoted(state) + ": " + std::to_string(count);
  }
  return out + "}, \"cache\": {\"entries\": " +
         std::to_string(stats.cache_entries) +
         ", \"bytes\": " + std::to_string(stats.cache_bytes) +
         ", \"max_bytes\": " + std::to_string(stats.cache_max_bytes) +
         ", \"warnings\": " + quoted_list(stats.cache_warnings) +
         "}, \"obs\": " + render_counters(stats.counters) + "}";
}

std::string render_ok() { return "{\"ok\": true}"; }

JobStatus parse_status_response(const std::string& line) {
  const Doc doc{"response"};
  const Value root = parse_response(doc, line);
  JobStatus status;
  status.id = doc.u64(doc.get(root, "id"), "id");
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
    stats.jobs_by_state[state] = doc.u64(count, state);
  }
  const Value& cache =
      doc.as(doc.get(root, "cache"), Value::Kind::Object, "a cache object");
  stats.cache_entries = doc.u64(doc.get(cache, "entries"), "entries");
  stats.cache_bytes = doc.u64(doc.get(cache, "bytes"), "bytes");
  stats.cache_max_bytes = doc.u64(doc.get(cache, "max_bytes"), "max_bytes");
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
