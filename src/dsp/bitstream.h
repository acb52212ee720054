// Bit-granular I/O for the Vorbix codec's entropy-coded payload. Bits are
// packed MSB-first within each byte.
//
// Both sides move a 64-bit word at a time. BitWriter collects fields in a
// 64-bit accumulator and appends eight bytes whenever it fills (fields wider
// than 56 bits are written as two). BitReader loads the eight bytes at the
// read position big-endian whenever that many remain; near the end of the
// buffer, for fields wider than 56 bits, and for unary runs that leave the
// word or exceed their limit it falls back to a byte-at-a-time loop, so
// errors and the position after an error are those of the byte loop.
#ifndef SRC_DSP_BITSTREAM_H_
#define SRC_DSP_BITSTREAM_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/status.h"

namespace espk {

class BitWriter {
 public:
  // Writes the low `bits` bits of `value`, MSB first. bits in [0, 64].
  void WriteBits(uint64_t value, int bits) {
    assert(bits >= 0 && bits <= 64);
    if (bits > 56) {
      WriteBits(value >> 32, bits - 32);
      bits = 32;
    }
    value &= (uint64_t{1} << bits) - 1;
    bit_count_ += static_cast<size_t>(bits);
    const int free = 64 - used_;
    if (bits < free) {
      acc_ = (acc_ << bits) | value;
      used_ += bits;
      return;
    }
    // Fill the word (free <= bits <= 56, so no shift reaches 64), append it,
    // and keep the field's remaining low bits; bits above them in acc_ are
    // shifted out before they are ever emitted.
    const int rest = bits - free;
    AppendWord((acc_ << free) | (value >> rest));
    acc_ = value;
    used_ = rest;
  }
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  // Writes `count` one-bits followed by a zero (unary code).
  void WriteUnary(uint32_t count) {
    while (count >= 32) {
      WriteBits(0xFFFFFFFFull, 32);
      count -= 32;
    }
    // `count` ones followed by the terminating zero, in one call.
    WriteBits(((uint64_t{1} << count) - 1) << 1, static_cast<int>(count) + 1);
  }

  // Pads the final partial byte with zeros and returns the buffer by move.
  Bytes Finish();

  // Pads the final partial byte with zeros and returns a view of the buffer
  // without giving up ownership — pair with Clear() to reuse the writer's
  // capacity across packets (zero-allocation steady state). Idempotent.
  const Bytes& Flush();

  // Resets to empty, keeping the allocated capacity.
  void Clear();

  size_t bit_count() const { return bit_count_; }

 private:
  // Appends `word` to buf_ as eight big-endian bytes.
  void AppendWord(uint64_t word);

  Bytes buf_;
  uint64_t acc_ = 0;  // The low used_ bits are pending, oldest highest.
  int used_ = 0;      // Pending bits in acc_, 0..63.
  size_t bit_count_ = 0;
};

class BitReader {
 public:
  // The data must outlive the reader; no copy is made.
  BitReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit BitReader(const Bytes& data)
      : BitReader(data.data(), data.size()) {}

  // Reads `bits` bits MSB-first. Fails with OUT_OF_RANGE past the end.
  Result<uint64_t> ReadBits(int bits) {
    assert(bits >= 0 && bits <= 64);
    const size_t byte = pos_ >> 3;
    if (bits <= 56 && len_ - byte >= 8) {
      // offset + bits <= 63, so the field lies inside this word. The split
      // shift keeps bits == 0 defined (a single shift by 64 is not).
      const uint64_t word = LoadWord(byte) << (pos_ & 7);
      pos_ += static_cast<size_t>(bits);
      return (word >> 1) >> (63 - bits);
    }
    return ReadBitsBytewise(bits);
  }
  Result<bool> ReadBit() {
    Result<uint64_t> bit = ReadBits(1);
    if (!bit.ok()) {
      return bit.status();
    }
    return *bit != 0;
  }

  // Reads ones until a zero; returns the count of ones. Bounded by
  // `max_run` to stop adversarial input from spinning (DoS hardening, §5.1).
  Result<uint32_t> ReadUnary(uint32_t max_run = 1 << 20) {
    if (len_ - (pos_ >> 3) >= 8) {
      // The low `offset` bits of the shifted word are zero, so a run that
      // reaches them is not terminated inside this word.
      const int offset = static_cast<int>(pos_ & 7);
      const int ones = std::countl_one(LoadWord(pos_ >> 3) << offset);
      if (ones < 64 - offset && static_cast<uint32_t>(ones) <= max_run) {
        pos_ += static_cast<size_t>(ones) + 1;
        return static_cast<uint32_t>(ones);
      }
    }
    return ReadLongUnary(max_run);
  }

  size_t bits_remaining() const { return len_ * 8 - pos_; }

 private:
  // The eight bytes from data_[byte] as a big-endian integer.
  uint64_t LoadWord(size_t byte) const {
    uint64_t word;
    std::memcpy(&word, data_ + byte, sizeof(word));
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    return word;
  }
  // ReadBits when fewer than eight bytes remain or bits > 56.
  Result<uint64_t> ReadBitsBytewise(int bits);
  // ReadUnary, a byte at a time, when the run does not end inside the
  // first word, exceeds max_run, or fewer than eight bytes remain.
  Result<uint32_t> ReadLongUnary(uint32_t max_run);

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;  // Bit position.
};

}  // namespace espk

#endif  // SRC_DSP_BITSTREAM_H_
