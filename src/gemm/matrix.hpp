// Dense row-major matrix container used by the GEMM kernels, apps, and
// benchmark harnesses.
#pragma once

#include <complex>
#include <cstddef>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace m3xu::gemm {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * cols) {
    M3XU_CHECK(rows >= 0 && cols >= 0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int ld() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  T& operator()(int i, int j) {
    M3XU_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }
  const T& operator()(int i, int j) const {
    M3XU_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  void fill(T value) {
    for (auto& v : data_) v = value;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<T> data_;
};

/// Same shape and the same bytes in every element: the bit-identity
/// check of the tests, the benches and the fault campaign.
template <typename T>
bool bitwise_equal(const Matrix<T>& x, const Matrix<T>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

/// Fills with well-scaled random values (benign GEMM range).
void fill_random(Matrix<float>& m, Rng& rng);
void fill_random(Matrix<double>& m, Rng& rng);
void fill_random(Matrix<std::complex<float>>& m, Rng& rng);
void fill_random(Matrix<std::complex<double>>& m, Rng& rng);

/// Exact widenings / conversions.
Matrix<double> widen(const Matrix<float>& m);
Matrix<std::complex<double>> widen(const Matrix<std::complex<float>>& m);
Matrix<float> narrow(const Matrix<double>& m);

}  // namespace m3xu::gemm
