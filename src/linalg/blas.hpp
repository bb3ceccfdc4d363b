#pragma once

#include <cmath>

#include "linalg/matrix.hpp"

namespace blr::la {

enum class Trans { No, Yes };
enum class Side { Left, Right };
enum class Uplo { Lower, Upper };
enum class Diag { NonUnit, Unit };

/// General matrix-matrix multiply: C = alpha * op(A) * op(B) + beta * C.
/// Sequential. op(X) is X or Xᵗ according to the flags. Dispatches through
/// the selected kernel backend (backend.hpp): Reference runs the loop
/// nests; Native routes problems past a small size threshold through the
/// packed, register-blocked microkernel of the CPUID-selected ISA tier (all
/// four transpose cases) and tiny ones through the same loop nests. Every
/// backend produces bit-identical results.
template <typename T>
void gemm(Trans trans_a, Trans trans_b, T alpha, ConstView<T> a, ConstView<T> b,
          T beta, MatView<T> c);

/// The plain gemm loop nests — the Reference backend's implementation
/// (la::gemm with backend Reference lands here), also used directly as the
/// perfsmoke baseline the packed path is measured against.
template <typename T>
void gemm_unpacked(Trans trans_a, Trans trans_b, T alpha, ConstView<T> a,
                   ConstView<T> b, T beta, MatView<T> c);

/// Triangular solve with multiple right-hand sides:
///   Side::Left : op(A) * X = alpha * B,  X overwrites B
///   Side::Right: X * op(A) = alpha * B,  X overwrites B
/// A is triangular per (uplo, diag); only the referenced triangle is read.
template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstView<T> a,
          MatView<T> b);

/// Symmetric rank-k update on one triangle:
///   C = beta * C + alpha * A * Aᵗ (trans == No)
///   C = beta * C + alpha * Aᵗ * A (trans == Yes)
/// Only the (uplo) triangle of C is referenced and updated.
template <typename T>
void syrk(Uplo uplo, Trans trans, T alpha, ConstView<T> a, T beta, MatView<T> c);

/// Matrix-vector multiply: y = alpha * op(A) * x + beta * y.
template <typename T>
void gemv(Trans trans, T alpha, ConstView<T> a, const T* x, T beta, T* y);

/// Triangular matrix-vector solve: op(A) x = b, x overwrites b.
template <typename T>
void trsv(Uplo uplo, Trans trans, Diag diag, ConstView<T> a, T* b);

// ---- Level-1 style helpers over raw ranges -------------------------------

template <typename T>
T dot(index_t n, const T* x, const T* y) {
  T s = T(0);
  for (index_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

template <typename T>
void axpy(index_t n, T alpha, const T* x, T* y) {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <typename T>
void scal(index_t n, T alpha, T* x) {
  for (index_t i = 0; i < n; ++i) x[i] *= alpha;
}

template <typename T>
T nrm2_sq(index_t n, const T* x) {
  T s = T(0);
  for (index_t i = 0; i < n; ++i) s += x[i] * x[i];
  return s;
}

template <typename T>
T nrm2(index_t n, const T* x) {
  return std::sqrt(nrm2_sq(n, x));
}

} // namespace blr::la
