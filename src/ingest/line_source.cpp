#include "ingest/line_source.hpp"

#include <stdexcept>

#include "core/obs/metrics.hpp"

namespace wheels::ingest {

LineSource::LineSource(const std::string& path, const ChunkSpec& spec)
    : file_(path, std::ios::binary), reader_(file_, spec.chunk_bytes) {
  if (!file_) {
    throw std::runtime_error{"ingest: cannot open " + path};
  }
}

LineSource::LineSource(std::istream& is, const ChunkSpec& spec)
    : reader_(is, spec.chunk_bytes) {}

void LineSource::count_reads() {
  static const core::obs::Counter chunks{"ingest.chunks"};
  static const core::obs::Counter read{"ingest.bytes_read"};
  chunks.add(reader_.blocks_read() - counted_blocks_);
  read.add(reader_.bytes_read() - counted_bytes_);
  counted_blocks_ = reader_.blocks_read();
  counted_bytes_ = reader_.bytes_read();
}

}  // namespace wheels::ingest
