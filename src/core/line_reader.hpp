// Block-buffered line splitting: the one line reader every text input in
// the tree goes through.
//
// The bundle tables (measure/csv_export.cpp) and the third-party traces
// (ingest/line_source.hpp) are both read here. The reader pulls its input
// one fixed-size block per refill, from a stream or with pread from an
// open file, finds line ends with memchr and hands out each physical line
// as a view into its buffer, so no line allocates. It has no policy: which
// lines are blank, comments or headers is the caller's business.
#pragma once

#include <cstddef>
#include <cstring>
#include <iosfwd>
#include <string_view>
#include <utility>
#include <vector>

namespace wheels::core {

class LineReader {
 public:
  /// Reads `is` `block_bytes` at a time (values below one read one byte).
  LineReader(std::istream& is, std::size_t block_bytes);

  /// Reads the open file `fd` with pread, from byte `offset` on,
  /// `block_bytes` at a time. The reader keeps its lines in `buffer`'s
  /// storage, which take_buffer() hands back, so a caller reading many
  /// pieces of a file reuses one buffer. A failed read throws
  /// std::system_error.
  LineReader(int fd, std::size_t offset, std::size_t block_bytes,
             std::vector<char> buffer);

  /// The next physical line, without its '\n' and without one trailing
  /// '\r'; false at end of input. A final line without '\n' is still a
  /// line. The view stays valid until the next call.
  bool next(std::string_view& line) {
    std::size_t scanned = pos_;
    const char* nl = nullptr;
    while ((nl = static_cast<const char*>(std::memchr(
                buf_.data() + scanned, '\n', end_ - scanned))) == nullptr) {
      scanned = end_ - pos_;  // fill() moves the scanned tail to the front
      if (!fill()) break;
    }
    if (nl == nullptr && pos_ == end_) return false;
    const std::size_t stop =
        nl != nullptr ? static_cast<std::size_t>(nl - buf_.data()) : end_;
    line = std::string_view{buf_.data() + pos_, stop - pos_};
    line_offset_ = consumed_ + pos_;
    pos_ = nl != nullptr ? stop + 1 : stop;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++line_;
    return true;
  }

  /// Physical 1-based number of the line next() returned last; 0 before
  /// the first.
  std::size_t line_number() const { return line_; }

  /// Offset of the first byte of the line next() returned last, counted
  /// from the first byte this reader read.
  std::size_t line_offset() const { return line_offset_; }

  /// Refills that returned data, and the bytes they returned. Each refill
  /// asks for exactly one block, so a whole input of N bytes takes
  /// ceil(N / block) of them.
  std::size_t blocks_read() const { return blocks_; }
  std::size_t bytes_read() const { return bytes_; }

  /// Gives up the buffer, for another reader to reuse.
  std::vector<char> take_buffer() && { return std::move(buf_); }

 private:
  /// Moves the unread tail to the front of the buffer and reads one block
  /// behind it, growing the buffer when the tail leaves no room. False once
  /// the input is drained.
  bool fill();

  std::istream* is_ = nullptr;  // null: pread from fd_
  int fd_ = -1;
  std::size_t file_offset_ = 0;  // where the next pread starts
  std::size_t block_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  // start of the unread bytes in buf_
  std::size_t end_ = 0;  // end of the bytes read into buf_
  std::size_t consumed_ = 0;  // input bytes moved out in front of buf_
  std::size_t line_offset_ = 0;
  std::size_t line_ = 0;
  std::size_t blocks_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace wheels::core
