#include "core/line_reader.hpp"

#include <algorithm>
#include <istream>

namespace wheels::core {

LineReader::LineReader(std::istream& is, std::size_t block_bytes)
    : is_(is), block_(std::max<std::size_t>(block_bytes, 1)), buf_(block_) {}

bool LineReader::fill() {
  std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
  end_ -= pos_;
  pos_ = 0;
  if (buf_.size() < end_ + block_) buf_.resize(end_ + block_);
  is_.read(buf_.data() + end_, static_cast<std::streamsize>(block_));
  const auto got = static_cast<std::size_t>(is_.gcount());
  if (got == 0) return false;
  end_ += got;
  ++blocks_;
  bytes_ += got;
  return true;
}

}  // namespace wheels::core
