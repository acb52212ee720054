#include "src/dsp/bitstream.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace espk {

void BitWriter::AppendWord(uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) {
    word = __builtin_bswap64(word);
  }
  const size_t size = buf_.size();
  buf_.resize(size + sizeof(word));
  std::memcpy(buf_.data() + size, &word, sizeof(word));
}

const Bytes& BitWriter::Flush() {
  // Pending bits, left-aligned, then whole bytes until they are all out; the
  // last byte's unused low bits are the zero padding.
  uint64_t pending = used_ > 0 ? acc_ << (64 - used_) : 0;
  for (int left = used_; left > 0; left -= 8) {
    buf_.push_back(static_cast<uint8_t>(pending >> 56));
    pending <<= 8;
  }
  acc_ = 0;
  used_ = 0;
  return buf_;
}

Bytes BitWriter::Finish() {
  Flush();
  return std::move(buf_);
}

void BitWriter::Clear() {
  buf_.clear();
  acc_ = 0;
  used_ = 0;
  bit_count_ = 0;
}

Result<uint64_t> BitReader::ReadBitsBytewise(int bits) {
  if (pos_ + static_cast<size_t>(bits) > len_ * 8) {
    return OutOfRangeError("bitstream exhausted");
  }
  uint64_t value = 0;
  while (bits > 0) {
    const size_t byte = pos_ >> 3;
    const int avail = 8 - static_cast<int>(pos_ & 7);
    const int take = std::min(avail, bits);
    const uint8_t chunk = static_cast<uint8_t>(
        (data_[byte] >> (avail - take)) & ((1u << take) - 1));
    value = (value << take) | chunk;
    pos_ += static_cast<size_t>(take);
    bits -= take;
  }
  return value;
}

Result<uint32_t> BitReader::ReadLongUnary(uint32_t max_run) {
  // A byte at a time from the current position; the inline path has
  // consumed nothing, so the error and position left are the byte loop's.
  uint32_t count = 0;
  const size_t end = len_ * 8;
  for (;;) {
    if (pos_ >= end) {
      return OutOfRangeError("bitstream exhausted");
    }
    const size_t byte = pos_ >> 3;
    const int offset = static_cast<int>(pos_ & 7);
    const int avail = std::min(8 - offset,
                               static_cast<int>(end - pos_));
    // Remaining bits of this byte, left-aligned; count the leading ones.
    const auto window = static_cast<uint8_t>(data_[byte] << offset);
    const int ones = std::min(std::countl_one(window), avail);
    if (ones == avail) {
      // Run continues past this byte (or past end-of-stream, caught above).
      count += static_cast<uint32_t>(avail);
      pos_ += static_cast<size_t>(avail);
      if (count > max_run) {
        return DataLossError("unary run exceeds limit (corrupt bitstream)");
      }
      continue;
    }
    count += static_cast<uint32_t>(ones);
    pos_ += static_cast<size_t>(ones) + 1;  // Consume the terminating zero.
    if (count > max_run) {
      return DataLossError("unary run exceeds limit (corrupt bitstream)");
    }
    return count;
  }
}

}  // namespace espk
