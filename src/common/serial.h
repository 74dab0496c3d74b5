// Minimal binary serialization for checkpoints: a byte-buffer Writer and a
// bounds-checked Reader over little-endian fixed-width integers and
// bit-exact doubles.
//
// The encoding is deliberately dumb — no varints, no tags — because the
// consumers (model snapshots, runtime checkpoints) carry their own versioned
// headers and care about exactly two properties: doubles round-trip
// bit-for-bit (restored chains must continue bit-identically), and corrupt
// or truncated input fails with a Status instead of reading out of bounds.
//
// The wire format is little-endian, and so must the host be (enforced at
// compile time): every fixed-width value is its in-memory bytes, so a value
// is one append and an array of doubles (DoubleVec, F64s) is one memcpy
// each way. A counting Writer (Writer::Counting) runs the same calls but
// only sums their sizes; callers that build a large buffer run their body
// once counting, Reserve() the exact size, then once for real, so the
// buffer never regrows.
#ifndef LAHAR_COMMON_SERIAL_H_
#define LAHAR_COMMON_SERIAL_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace lahar {
namespace serial {

static_assert(std::endian::native == std::endian::little,
              "serial encodes values as their in-memory bytes, which is the "
              "little-endian wire format only on a little-endian host");

/// \brief Appends little-endian values to a growing byte buffer.
class Writer {
 public:
  /// A writer whose appends only add to size(); str() stays empty.
  static Writer Counting() {
    Writer w;
    w.counting_ = true;
    return w;
  }

  void U8(uint8_t v) { Append(&v, 1); }
  void U32(uint32_t v) { Append(&v, 4); }
  void U64(uint64_t v) { Append(&v, 8); }
  /// Bit-exact double (the IEEE-754 bit pattern as a u64).
  void F64(double v) { Append(&v, 8); }
  /// `n` bit-exact doubles, no length prefix.
  void F64s(const double* v, size_t n) { Append(v, n * sizeof(double)); }
  /// u64 length followed by the raw bytes.
  void Str(std::string_view s) {
    U64(s.size());
    Append(s.data(), s.size());
  }
  /// u64 length followed by bit-exact doubles.
  void DoubleVec(const std::vector<double>& v) {
    U64(v.size());
    F64s(v.data(), v.size());
  }

  /// Starts a Str whose bytes are written in place by later calls: writes
  /// a placeholder length and returns its offset for EndStr.
  size_t BeginStr() {
    const size_t at = size();
    U64(0);
    return at;
  }
  /// Back-patches the length BeginStr left at `at` to cover everything
  /// written since — the same bytes as Str() of that content.
  void EndStr(size_t at) {
    if (counting_) return;
    const uint64_t len = buf_.size() - at - sizeof(uint64_t);
    std::memcpy(buf_.data() + at, &len, sizeof(len));
  }

  /// Reserves capacity for `n` bytes in total (the size a counting pass
  /// reported), so the appends that follow never reallocate.
  void Reserve(size_t n) { buf_.reserve(n); }

  const std::string& str() const { return buf_; }
  size_t size() const { return counting_ ? count_ : buf_.size(); }
  /// Moves the buffer out without copying it.
  std::string Take() && { return std::move(buf_); }

 private:
  void Append(const void* p, size_t n) {
    if (counting_) {
      count_ += n;
    } else if (n != 0) {
      buf_.append(static_cast<const char*>(p), n);
    }
  }

  std::string buf_;
  size_t count_ = 0;
  bool counting_ = false;
};

/// \brief Consumes a byte buffer written by Writer. Every read is
/// bounds-checked: running past the end (or a length prefix larger than the
/// remaining bytes) returns InvalidArgument, never UB.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* out) { return Copy(out, 1); }
  Status U32(uint32_t* out) { return Copy(out, 4); }
  Status U64(uint64_t* out) { return Copy(out, 8); }
  Status F64(double* out) { return Copy(out, 8); }
  /// `n` bit-exact doubles into `out` (which must have room for them); a
  /// count beyond the remaining bytes fails without reading.
  Status F64s(double* out, uint64_t n);
  Status Str(std::string* out);
  /// A Str's bytes as a view into the buffer being read (no copy).
  Status StrView(std::string_view* out);
  Status DoubleVec(std::vector<double>* out);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(uint64_t n) const;
  Status Copy(void* out, size_t n) {
    LAHAR_RETURN_NOT_OK(Need(n));
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace serial
}  // namespace lahar

#endif  // LAHAR_COMMON_SERIAL_H_
