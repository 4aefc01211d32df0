#include "core/line_reader.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <istream>
#include <system_error>
#include <utility>

namespace wheels::core {

LineReader::LineReader(std::istream& is, std::size_t block_bytes)
    : is_(&is), block_(std::max<std::size_t>(block_bytes, 1)), buf_(block_) {}

LineReader::LineReader(int fd, std::size_t offset, std::size_t block_bytes,
                       std::vector<char> buffer)
    : fd_(fd),
      file_offset_(offset),
      block_(std::max<std::size_t>(block_bytes, 1)),
      buf_(std::move(buffer)) {
  if (buf_.size() < block_) buf_.resize(block_);
}

bool LineReader::fill() {
  std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
  consumed_ += pos_;
  end_ -= pos_;
  pos_ = 0;
  if (buf_.size() < end_ + block_) buf_.resize(end_ + block_);
  std::size_t got = 0;
  if (is_ != nullptr) {
    is_->read(buf_.data() + end_, static_cast<std::streamsize>(block_));
    got = static_cast<std::size_t>(is_->gcount());
  } else {
    ssize_t n = 0;
    do {
      n = ::pread(fd_, buf_.data() + end_, block_,
                  static_cast<off_t>(file_offset_));
    } while (n < 0 && errno == EINTR);
    if (n < 0) throw std::system_error{errno, std::generic_category(), "pread"};
    got = static_cast<std::size_t>(n);
    file_offset_ += got;
  }
  if (got == 0) return false;
  end_ += got;
  ++blocks_;
  bytes_ += got;
  return true;
}

}  // namespace wheels::core
