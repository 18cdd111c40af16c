// Blocked dense linear-algebra kernels for the thermal step propagator.
//
// These are the allocation-free building blocks under the hot paths:
// GEMV and GEMM fold the step propagator and compose the k-step
// power-hold operators (the steps themselves run on the panel kernels
// of util/panel.hpp), and LuFactorization::SolveMany (see
// lu.hpp) uses the same row-panel blocking for multi-RHS triangular
// solves. All kernels write into caller-provided storage -- nothing
// here allocates -- and all of them traverse row-major data in order,
// with register blocking (4 rows per pass sharing each x load) so the
// compiler can vectorize the inner loops.
//
// At the thermal-network sizes of this project (4N+12 <= ~1500 nodes)
// a dense row-major layout with these kernels beats permuted
// triangular solves: no gather through the pivot
// permutation, no loop-carried division chain, pure multiply-add
// streams.
#pragma once

#include <cstddef>
#include <span>

#include "util/matrix.hpp"

namespace ds::util {

/// Column block width for the cache-blocked kernels: 256 doubles = 2 KiB
/// per row segment, so a 4-row register block plus x stays deep in L1.
inline constexpr std::size_t kKernelColBlock = 256;

/// y = A x. Requires x.size() == a.cols(), y.size() == a.rows(), and
/// x/y must not alias. Allocation-free.
void Gemv(const Matrix& a, std::span<const double> x, std::span<double> y);

/// y += A x. Same requirements as Gemv. Allocation-free.
void GemvAdd(const Matrix& a, std::span<const double> x,
             std::span<double> y);

/// c = A B (c is overwritten). All three matrices must be dense
/// row-major with 64-byte-aligned backing storage (util::Matrix
/// guarantees both). Requires a.cols() == b.rows(), c non-null and
/// pre-sized to a.rows() x b.cols(); c must not alias a or b. The
/// shape and null-output preconditions are enforced as DS_REQUIRE
/// contracts, same as Gemv. Allocation-free.
void Gemm(const Matrix& a, const Matrix& b, Matrix* c);

/// c += A B. Same layout/alignment/shape requirements as Gemm, and the
/// same DS_REQUIRE contracts (checked before any element of c is
/// touched). Allocation-free.
void GemmAdd(const Matrix& a, const Matrix& b, Matrix* c);

}  // namespace ds::util
