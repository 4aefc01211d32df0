// core::LineReader, the block reader under the bundle tables and the trace
// line source: every physical line, at every block size, as std::getline
// sees it.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/line_reader.hpp"

namespace wheels::core {
namespace {

struct NumberedLine {
  std::string text;
  std::size_t number;
  bool operator==(const NumberedLine&) const = default;
};

/// The reference: std::getline with one trailing CR stripped per line.
std::vector<NumberedLine> lines_via_getline(const std::string& input) {
  std::istringstream is{input};
  std::vector<NumberedLine> out;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    out.push_back({line, out.size() + 1});
  }
  return out;
}

struct ReadResult {
  std::vector<NumberedLine> lines;
  std::size_t blocks = 0;
  std::size_t bytes = 0;
};

ReadResult lines_via_reader(const std::string& input, std::size_t block) {
  std::istringstream is{input};
  LineReader reader{is, block};
  ReadResult out;
  std::string_view line;
  while (reader.next(line)) {
    out.lines.push_back({std::string{line}, reader.line_number()});
  }
  EXPECT_FALSE(reader.next(line));  // end of input is sticky
  out.blocks = reader.blocks_read();
  out.bytes = reader.bytes_read();
  return out;
}

TEST(LineReaderTest, MatchesGetlineAtEveryBlockSize) {
  for (const std::size_t block :
       {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{64},
        std::size_t{256} << 10}) {
    const std::string long_line(3 * block, 'x');  // three blocks long
    const std::vector<std::string> inputs{
        "t,a,b\n0,1,2\n500,3,4\n",            // LF
        "t,a,b\r\n0,1,2\r\n500,3,4\r\n\r\n",  // CRLF, bare CR last line
        "alpha\nbeta\r\ngamma",               // no final newline
        "",                                   // empty input
        "\n\nalpha\n\n\nbeta\n\n",            // blank lines
        "head\n" + long_line + "\ntail\n",
        long_line + "\r\n" + long_line,
    };
    for (const std::string& input : inputs) {
      const ReadResult got = lines_via_reader(input, block);
      EXPECT_EQ(got.lines, lines_via_getline(input))
          << "block=" << block << " input=" << input.substr(0, 40);
      // One read per block: ceil(bytes / block) reads return data.
      EXPECT_EQ(got.blocks, (input.size() + block - 1) / block)
          << "block=" << block;
      EXPECT_EQ(got.bytes, input.size());
    }
  }
}

TEST(LineReaderTest, NumbersLinesFromOneAndClampsAZeroBlock) {
  std::istringstream is{"a\n\nb"};
  LineReader reader{is, 0};
  EXPECT_EQ(reader.line_number(), 0u);
  std::string_view line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "a");
  EXPECT_EQ(reader.line_number(), 1u);
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "b");
  EXPECT_EQ(reader.line_number(), 3u);
  EXPECT_FALSE(reader.next(line));
  EXPECT_EQ(reader.line_number(), 3u);
  EXPECT_EQ(reader.blocks_read(), 4u);  // a zero block reads one byte
}

TEST(LineReaderTest, PreadFromAnOffsetMatchesTheStreamAndReportsOffsets) {
  const std::string input = "t,a,b\r\n0,1,2\n\n500,3,4\r\nlast";
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "wheels-line-reader-pread.txt";
  std::ofstream{path, std::ios::binary} << input;
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  for (const std::size_t block :
       {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    for (std::size_t from = 0; from <= input.size(); ++from) {
      std::istringstream is{input.substr(from)};
      LineReader expected{is, block};
      LineReader got{fd, from, block, {}};
      std::string_view want;
      std::string_view line;
      while (expected.next(want)) {
        ASSERT_TRUE(got.next(line)) << "block=" << block << " from=" << from;
        EXPECT_EQ(line, want);
        EXPECT_EQ(got.line_number(), expected.line_number());
        // The offset is where the line sits in the input read.
        EXPECT_EQ(input.compare(from + got.line_offset(), line.size(), line),
                  0)
            << "block=" << block << " from=" << from;
      }
      EXPECT_FALSE(got.next(line));
      EXPECT_EQ(got.bytes_read(), input.size() - from);
    }
  }
  // A reader keeps its lines in the buffer handed in and hands it back.
  std::vector<char> buffer(128);
  const char* storage = buffer.data();
  LineReader reader{fd, 0, 64, std::move(buffer)};
  std::string_view line;
  while (reader.next(line)) {
  }
  EXPECT_EQ(line, "last");
  EXPECT_EQ(std::move(reader).take_buffer().data(), storage);
  ::close(fd);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace wheels::core
