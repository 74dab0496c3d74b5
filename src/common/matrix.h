// Small dense row-major matrix of doubles, used for HMM message passing and
// Markov-chain probability propagation.
#ifndef LAHAR_COMMON_MATRIX_H_
#define LAHAR_COMMON_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <vector>

namespace lahar {

/// \brief Dense row-major matrix of doubles.
///
/// Intentionally minimal: the library needs multiply, transpose-multiply and
/// row normalization for CPT handling; anything fancier would be dead weight.
class Matrix {
 public:
  Matrix() = default;
  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Row `r` as a contiguous span start pointer (cols() entries).
  double* Row(size_t r) { return &data_[r * cols_]; }
  const double* Row(size_t r) const { return &data_[r * cols_]; }

  /// All rows() * cols() entries, row-major.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Normalizes each row to sum to 1; rows summing to 0 are left untouched.
  void NormalizeRows();

  /// Returns this * other. Requires cols() == other.rows().
  Matrix Multiply(const Matrix& other) const;

  /// Returns v * this (row vector times matrix). Requires v.size() == rows().
  std::vector<double> LeftMultiply(const std::vector<double>& v) const;

  /// v * this written into `out` (resized to cols()), allocation-free when
  /// `out` already has capacity — the double-buffered form the inference
  /// loops use. `out` must not alias `v`. Accumulation order matches
  /// LeftMultiply exactly.
  void LeftMultiplyInto(const std::vector<double>& v,
                        std::vector<double>* out) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Sum of a probability vector (for normalization checks).
double Sum(const std::vector<double>& v);

/// Normalizes `v` in place to sum to 1; no-op if the sum is 0.
void Normalize(std::vector<double>* v);

}  // namespace lahar

#endif  // LAHAR_COMMON_MATRIX_H_
