#include "service/cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/json.hpp"
#include "core/obs/manifest.hpp"
#include "core/obs/metrics.hpp"

namespace wheels::service {

namespace fs = std::filesystem;

namespace {

using core::json::Doc;
using core::json::Value;

std::string read_file_bytes(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{path.string() + ": cannot open"};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

std::vector<std::string> sorted_file_names(const fs::path& dir) {
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator{dir}) {
    if (entry.is_regular_file()) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const std::string& name : sorted_file_names(dir)) {
    total += static_cast<std::uint64_t>(fs::file_size(dir / name));
  }
  return total;
}

std::string render_index_line(const CacheEntry& e) {
  std::string out = "{\"v\": 1, \"kind\": \"";
  out += job_kind_name(e.key.kind);
  out += "\", \"config\": \"" + core::json::escape(e.key.config_digest) +
         "\", \"seed\": " + std::to_string(e.key.seed) + ", \"input\": \"" +
         core::json::escape(e.key.input_digest) +
         "\", \"bytes\": " + std::to_string(e.bytes) + ", \"content\": \"" +
         core::json::escape(e.content_digest) + "\", \"dir\": \"" +
         core::json::escape(e.dir) + "\"}";
  return out;
}

CacheEntry parse_index_line(const std::string& line, int line_no) {
  const Doc doc{"cache index", line_no};
  const Value root = doc.parse(line);
  doc.as(root, Value::Kind::Object, "an index entry");
  const Value& ver =
      doc.as(doc.get(root, "v"), Value::Kind::Number, "a version number");
  if (ver.number != 1.0) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", ver.number);
    doc.fail(ver.line, std::string{"unsupported cache index version "} + buf +
                           " (this daemon writes 1)");
  }
  const Value& kindv =
      doc.as(doc.get(root, "kind"), Value::Kind::String, "a job kind string");
  auto kind = parse_job_kind(kindv.text);
  if (!kind) {
    doc.fail(kindv.line, "unknown job kind \"" + kindv.text + "\"");
  }
  CacheEntry e;
  e.key.kind = *kind;
  e.key.config_digest = doc.str(root, "config");
  e.key.seed = doc.u64(doc.get(root, "seed"), "seed");
  e.key.input_digest = doc.str(root, "input");
  e.bytes = doc.u64(doc.get(root, "bytes"), "bytes");
  e.content_digest = doc.str(root, "content");
  e.dir = doc.str(root, "dir");
  return e;
}

}  // namespace

std::string digest_directory(const std::string& dir) {
  const fs::path root{dir};
  std::string listing;
  for (const std::string& name : sorted_file_names(root)) {
    listing += name + "=" +
               core::obs::hex64(core::obs::fnv1a64(
                   read_file_bytes(root / name))) +
               "\n";
  }
  return core::obs::hex64(core::obs::fnv1a64(listing));
}

ResultCache::ResultCache(std::string root, std::uint64_t max_bytes)
    : root_(std::move(root)), max_bytes_(max_bytes) {
  fs::create_directories(root_);
  std::lock_guard lk{mu_};
  load_index_locked();
}

std::vector<std::string> ResultCache::warnings() const {
  std::lock_guard lk{mu_};
  return warnings_;
}

std::size_t ResultCache::entries() const {
  std::lock_guard lk{mu_};
  return entries_.size();
}

std::uint64_t ResultCache::total_bytes() const {
  std::lock_guard lk{mu_};
  std::uint64_t total = 0;
  for (const CacheEntry& e : entries_) total += e.bytes;
  return total;
}

std::string ResultCache::index_path() const {
  return (fs::path{root_} / "index.txt").string();
}

std::string ResultCache::stage_dir(std::uint64_t job_id) const {
  return (fs::path{root_} / ("stage-" + std::to_string(job_id))).string();
}

std::string ResultCache::entry_path(const CacheEntry& entry) const {
  return fs::absolute(fs::path{root_} / entry.dir).string();
}

void ResultCache::load_index_locked() {
  static const core::obs::Counter rejected{"service.cache_rejected"};
  std::ifstream in{index_path()};
  bool dirty = false;
  if (in) {
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty()) continue;
      try {
        CacheEntry e = parse_index_line(line, line_no);
        if (!fs::is_directory(fs::path{root_} / e.dir)) {
          throw std::runtime_error{"cache entry " + e.dir +
                                   ": missing object directory"};
        }
        // A later line for the same key supersedes an earlier one.
        const auto dup = std::find_if(
            entries_.begin(), entries_.end(),
            [&](const CacheEntry& x) { return x.key == e.key; });
        if (dup != entries_.end()) {
          entries_.erase(dup);
          dirty = true;
        }
        entries_.push_back(std::move(e));
      } catch (const std::runtime_error& err) {
        warnings_.push_back(err.what());
        rejected.add();
        dirty = true;
      }
    }
  }
  // Orphans: object or stage directories no surviving entry references —
  // the residue of a daemon killed mid-compute or mid-append.
  std::vector<fs::path> orphans;
  for (const fs::directory_entry& entry : fs::directory_iterator{root_}) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    const bool referenced = std::any_of(
        entries_.begin(), entries_.end(),
        [&](const CacheEntry& e) { return e.dir == name; });
    if (!referenced) orphans.push_back(entry.path());
  }
  for (const fs::path& p : orphans) fs::remove_all(p);
  if (dirty) rewrite_index_locked();
}

void ResultCache::append_line_locked(const CacheEntry& entry) {
  std::ofstream out{index_path(), std::ios::app | std::ios::binary};
  if (!out) {
    throw std::runtime_error{index_path() + ": cannot open for append"};
  }
  out << render_index_line(entry) << "\n";
}

void ResultCache::rewrite_index_locked() {
  const std::string tmp = index_path() + ".tmp";
  {
    std::ofstream out{tmp, std::ios::trunc | std::ios::binary};
    if (!out) {
      throw std::runtime_error{tmp + ": cannot open for writing"};
    }
    for (const CacheEntry& e : entries_) {
      out << render_index_line(e) << "\n";
    }
  }
  fs::rename(tmp, index_path());
}

std::optional<CacheEntry> ResultCache::lookup(const CacheKey& key) {
  static const core::obs::Counter hits{"service.cache_hits"};
  static const core::obs::Counter misses{"service.cache_misses"};
  static const core::obs::Counter rejected{"service.cache_rejected"};
  std::lock_guard lk{mu_};
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [&](const CacheEntry& e) { return e.key == key; });
  if (it == entries_.end()) {
    misses.add();
    return std::nullopt;
  }
  const fs::path path = fs::path{root_} / it->dir;
  std::string found;
  try {
    found = digest_directory(path.string());
  } catch (const std::runtime_error&) {
    // Missing or unreadable object directory; fall through as a mismatch.
  }
  if (found != it->content_digest) {
    warnings_.push_back("cache entry " + it->dir +
                        ": content digest mismatch (stored " +
                        it->content_digest + ", found " +
                        (found.empty() ? "nothing" : found) + ")");
    fs::remove_all(path);
    entries_.erase(it);
    rewrite_index_locked();
    rejected.add();
    misses.add();
    return std::nullopt;
  }
  CacheEntry e = *it;
  entries_.erase(it);
  entries_.push_back(e);  // most recently used
  hits.add();
  return e;
}

CacheEntry ResultCache::publish(const CacheKey& key,
                                const std::string& staged_dir) {
  CacheEntry e;
  e.key = key;
  e.dir = key.dir_name();
  e.content_digest = digest_directory(staged_dir);
  e.bytes = directory_bytes(staged_dir);
  std::lock_guard lk{mu_};
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [&](const CacheEntry& x) { return x.key == key; });
  if (it != entries_.end()) {
    // A concurrent identical job already published; both outputs are
    // byte-identical by construction, keep the incumbent.
    fs::remove_all(staged_dir);
    CacheEntry existing = *it;
    entries_.erase(it);
    entries_.push_back(existing);
    return existing;
  }
  const fs::path target = fs::path{root_} / e.dir;
  fs::remove_all(target);
  fs::rename(staged_dir, target);
  entries_.push_back(e);
  append_line_locked(e);
  evict_to_cap_locked();
  return e;
}

void ResultCache::evict_to_cap_locked() {
  static const core::obs::Counter evictions{"service.cache_evictions"};
  if (max_bytes_ == 0) return;
  std::uint64_t total = 0;
  for (const CacheEntry& e : entries_) total += e.bytes;
  bool evicted = false;
  // Never evict the newest entry: a result must survive long enough for the
  // submitting client to read it, even when it alone exceeds the cap.
  while (total > max_bytes_ && entries_.size() > 1) {
    const CacheEntry& cold = entries_.front();
    total -= cold.bytes;
    fs::remove_all(fs::path{root_} / cold.dir);
    entries_.erase(entries_.begin());
    evictions.add();
    evicted = true;
  }
  if (evicted) rewrite_index_locked();
}

}  // namespace wheels::service
