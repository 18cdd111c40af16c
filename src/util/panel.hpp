// Column-major state panels and the batched stepping kernels over them.
//
// A ColPanel holds k job state vectors (each of length n) as the
// columns of a conceptual n x k column-major panel. Column-major n x k
// is row-major k x n, so each job's vector is one contiguous row of the
// backing Matrix: gather/scatter of a job in or out of the panel is a
// single contiguous memcpy-class copy, allocation-free, and the batched
// kernels below sweep the (transposed) operator once while every
// member's output row accumulates in registers.
//
// Determinism contract: the batched kernels are compiled WITHOUT value-
// changing FP optimizations (see src/util/CMakeLists.txt -- the panel
// TU deliberately omits -ffast-math), the operator is supplied
// transposed, and every output element is one sequential ascending-c
// fold: out(j,i) = fold_c of x(j,c) * at(c,i), one fused multiply-add
// per c on AVX2/FMA builds (one rounded multiply plus add otherwise).
// Because each element owns exactly one dependency chain, its bits
// depend only on the contents of column j and the operator -- never on
// k, on which other jobs share the panel, on column position, or on
// the register-tile / unroll shape. This is what lets the sweep engine
// promise byte-identical CSV output at any --batch-max-k: the scalar
// lane is simply the k = 1 instance of the same code.
#pragma once

#include <cstddef>
#include <span>

#include "util/contracts.hpp"
#include "util/matrix.hpp"

namespace ds::util {

/// k job vectors of length n, stored as rows of a k_max x n Matrix
/// (i.e. a column-major n x k panel). Storage is AlignedAllocator-
/// backed via Matrix; all methods after construction are
/// allocation-free.
class ColPanel {
 public:
  ColPanel() = default;
  ColPanel(std::size_t n, std::size_t k_max) : m_(k_max, n) {}

  std::size_t n() const { return m_.cols(); }
  std::size_t k_max() const { return m_.rows(); }

  /// Contiguous view of column j of the conceptual n x k panel.
  std::span<double> col(std::size_t j) {
    DS_REQUIRE(j < m_.rows(), "ColPanel: column " << j << " of "
                                                  << m_.rows());
    return m_.row(j);
  }
  std::span<const double> col(std::size_t j) const {
    DS_REQUIRE(j < m_.rows(), "ColPanel: column " << j << " of "
                                                  << m_.rows());
    return m_.row(j);
  }

  /// Column j = v. Requires v.size() == n(). Allocation-free.
  void Gather(std::size_t j, std::span<const double> v) {
    auto c = col(j);
    DS_REQUIRE(v.size() == c.size(),
               "ColPanel::Gather: vector " << v.size() << ", panel n "
                                           << c.size());
    for (std::size_t i = 0; i < c.size(); ++i) c[i] = v[i];
  }

  /// out = column j. Requires out.size() == n(). Allocation-free.
  void Scatter(std::size_t j, std::span<double> out) const {
    auto c = col(j);
    DS_REQUIRE(out.size() == c.size(),
               "ColPanel::Scatter: out " << out.size() << ", panel n "
                                         << c.size());
    for (std::size_t i = 0; i < c.size(); ++i) out[i] = c[i];
  }

  /// Copies column `src` over column `dst` (compaction on member
  /// detach). Bitwise-safe: column values never depend on position.
  void CopyColumn(std::size_t src, std::size_t dst) {
    if (src == dst) return;
    auto s = col(src);
    auto d = col(dst);
    for (std::size_t i = 0; i < s.size(); ++i) d[i] = s[i];
  }

  Matrix& storage() { return m_; }
  const Matrix& storage() const { return m_; }

  void swap(ColPanel& other) noexcept {
    Matrix tmp = std::move(m_);
    m_ = std::move(other.m_);
    other.m_ = std::move(tmp);
  }

 private:
  Matrix m_;  // row j = column j of the conceptual n x k panel
};

/// out_j = A x_j for the first k panel columns, with the operator
/// supplied TRANSPOSED: at(c, i) = A(i, c), so at is n_in x m_out
/// row-major (StepPropagator stores its operators this way). Requires
/// x.n() == at.rows(), out.n() == at.cols(), and
/// k <= min(x.k_max(), out.k_max()); x and out must not alias.
/// Allocation-free; the per-element fold order is fixed and
/// independent of k (see file comment).
void PanelApplyT(const Matrix& at, const ColPanel& x, std::size_t k,
                 ColPanel* out);

/// out_j += A x_j. Same requirements as PanelApplyT; the accumulation
/// extends each element's fold chain (prior value is the fold seed).
void PanelApplyAddT(const Matrix& at, const ColPanel& x, std::size_t k,
                    ColPanel* out);

/// out_j += v for the first k columns. Requires v.size() == out.n().
void PanelAddBroadcast(std::span<const double> v, std::size_t k,
                       ColPanel* out);

}  // namespace ds::util
