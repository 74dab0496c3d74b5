#include "common/serial.h"

namespace lahar {
namespace serial {

Status Reader::Need(uint64_t n) const {
  if (remaining() < n) {
    return Status::InvalidArgument("truncated serialized data (need " +
                                   std::to_string(n) + " bytes, have " +
                                   std::to_string(remaining()) + ")");
  }
  return Status::OK();
}

Status Reader::F64s(double* out, uint64_t n) {
  // Divide rather than multiply: `n * 8` wraps uint64 for an untrusted
  // n >= 2^61, which would pass a byte-count check.
  if (n > remaining() / sizeof(double)) {
    return Status::InvalidArgument(
        "truncated serialized data (" + std::to_string(n) +
        " doubles, have " + std::to_string(remaining()) + " bytes)");
  }
  // n == 0 may come with a null `out` (an empty vector's data()), which
  // memcpy must not see.
  if (n == 0) return Status::OK();
  std::memcpy(out, data_.data() + pos_, n * sizeof(double));
  pos_ += n * sizeof(double);
  return Status::OK();
}

Status Reader::StrView(std::string_view* out) {
  uint64_t len;
  LAHAR_RETURN_NOT_OK(U64(&len));
  LAHAR_RETURN_NOT_OK(Need(len));
  *out = data_.substr(pos_, len);
  pos_ += len;
  return Status::OK();
}

Status Reader::Str(std::string* out) {
  std::string_view s;
  LAHAR_RETURN_NOT_OK(StrView(&s));
  out->assign(s);
  return Status::OK();
}

Status Reader::DoubleVec(std::vector<double>* out) {
  uint64_t len;
  LAHAR_RETURN_NOT_OK(U64(&len));
  // Check before resizing: an untrusted len must not drive the allocation.
  if (len > remaining() / sizeof(double)) {
    return Status::InvalidArgument(
        "truncated serialized data (double vector of " + std::to_string(len) +
        " elements, have " + std::to_string(remaining()) + " bytes)");
  }
  out->resize(len);
  return F64s(out->data(), len);
}

}  // namespace serial
}  // namespace lahar
