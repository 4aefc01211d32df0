// Bounded-memory line input for the ingest adapters.
//
// Multi-GB drive recordings cannot be slurped into one CanonicalTrace; the
// adapters pull one payload line at a time from a LineSource instead. The
// source reads its input through core::LineReader one chunk_bytes block at
// a time, so peak memory is O(chunk_bytes + longest line), independent of
// the file size, and applies the shared trace dialect on top: '#'-prefixed
// comment lines and blank lines are skipped anywhere (published traces
// carry both), CRLF endings are accepted, and every line keeps its physical
// 1-based number, so skipping a line never renumbers the ones after it.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>
#include <string_view>

#include "core/line_reader.hpp"

namespace wheels::ingest {

/// Geometry of the line source.
struct ChunkSpec {
  /// Bytes per read. Values below one are clamped to one; tiny blocks are
  /// legal (the equivalence tests sweep them) but slow.
  std::size_t chunk_bytes = 1 << 20;
};

/// One payload line: CR-stripped text plus its physical 1-based line number.
/// The view is valid only until the next LineSource::next() call.
struct LineRef {
  std::string_view text;
  std::size_t number = 0;
};

/// The trace dialect over core::LineReader. Counts the blocks and bytes it
/// reads into the core::obs registry ("ingest.chunks", "ingest.bytes_read").
class LineSource {
 public:
  /// Reads the file at `path` (binary). Throws
  /// std::runtime_error{"ingest: cannot open <path>"} on open failure.
  LineSource(const std::string& path, const ChunkSpec& spec);
  /// Reads `is`, which must outlive the source.
  LineSource(std::istream& is, const ChunkSpec& spec);

  LineSource(const LineSource&) = delete;
  LineSource& operator=(const LineSource&) = delete;

  /// The next payload line; false once the input is exhausted.
  bool next(LineRef& line) {
    std::string_view text;
    while (reader_.next(text)) {
      if (text.empty() || text.front() == '#') continue;
      if (reader_.blocks_read() != counted_blocks_) count_reads();
      line = {text, reader_.line_number()};
      return true;
    }
    count_reads();
    done_ = true;
    return false;
  }

  /// Physical 1-based line number of the last line handed out, or one past
  /// the final physical line once next() returned false, so diagnostics at
  /// end of input point past the last line.
  std::size_t line_number() const {
    return reader_.line_number() + (done_ ? 1 : 0);
  }

 private:
  /// Adds the reads since the last call to the obs counters.
  void count_reads();

  std::ifstream file_;  // opened by the path constructor only
  core::LineReader reader_;
  std::size_t counted_blocks_ = 0;
  std::size_t counted_bytes_ = 0;
  bool done_ = false;
};

}  // namespace wheels::ingest
