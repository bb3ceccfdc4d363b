// Unit + property tests for the BLAS layer: every transpose combination of
// GEMM against a naive reference, all 16 TRSM variants checked by
// reconstruction, SYRK, GEMV and the level-1 helpers.

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/random.hpp"

namespace {

using namespace blr;
using namespace blr::la;

DMatrix op(const DMatrix& a, Trans t) {
  if (t == Trans::No) return a;
  DMatrix at(a.cols(), a.rows());
  transpose<real_t>(a.cview(), at.view());
  return at;
}

/// Naive reference GEMM on materialized operands.
DMatrix ref_gemm(const DMatrix& a, const DMatrix& b, real_t alpha,
                 const DMatrix& c, real_t beta) {
  DMatrix out(c.rows(), c.cols());
  for (index_t j = 0; j < c.cols(); ++j) {
    for (index_t i = 0; i < c.rows(); ++i) {
      real_t s = 0;
      for (index_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      out(i, j) = alpha * s + beta * c(i, j);
    }
  }
  return out;
}

struct GemmCase {
  Trans ta, tb;
  index_t m, n, k;
  real_t alpha, beta;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesReference) {
  const auto p = GetParam();
  Prng rng(17);
  DMatrix a(p.ta == Trans::No ? p.m : p.k, p.ta == Trans::No ? p.k : p.m);
  DMatrix b(p.tb == Trans::No ? p.k : p.n, p.tb == Trans::No ? p.n : p.k);
  DMatrix c(p.m, p.n);
  random_normal(a.view(), rng);
  random_normal(b.view(), rng);
  random_normal(c.view(), rng);

  const DMatrix expected = ref_gemm(op(a, p.ta), op(b, p.tb), p.alpha, c, p.beta);
  gemm(p.ta, p.tb, p.alpha, a.cview(), b.cview(), p.beta, c.view());
  EXPECT_LT(diff_fro(c.cview(), expected.cview()), 1e-11 * (1 + norm_fro(expected.cview())));
}

INSTANTIATE_TEST_SUITE_P(
    AllTransCombos, GemmTest,
    ::testing::Values(
        GemmCase{Trans::No, Trans::No, 7, 5, 9, 1.0, 0.0},
        GemmCase{Trans::No, Trans::No, 33, 17, 64, -1.0, 1.0},
        GemmCase{Trans::Yes, Trans::No, 8, 6, 10, 2.0, 0.5},
        GemmCase{Trans::Yes, Trans::No, 40, 40, 40, 1.0, 1.0},
        GemmCase{Trans::No, Trans::Yes, 9, 7, 5, -1.0, 1.0},
        GemmCase{Trans::No, Trans::Yes, 65, 13, 21, 1.0, 0.0},
        GemmCase{Trans::Yes, Trans::Yes, 6, 8, 4, 1.5, -0.5},
        GemmCase{Trans::Yes, Trans::Yes, 31, 29, 37, 1.0, 1.0},
        GemmCase{Trans::No, Trans::No, 1, 1, 1, 1.0, 0.0},
        GemmCase{Trans::No, Trans::Yes, 16, 16, 0, 1.0, 2.0}));

// Packed-microkernel coverage: k spans multiple KC panels (KC = 256), so the
// packed path's KC-splitting, its edge micro-tiles, and all four transpose
// packings are exercised against the naive reference and against the
// unpacked loop nests.
TEST(Gemm, PackedPathLargeKAllTransCombos) {
  Prng rng(29);
  const index_t m = 45, n = 37, k = 600;  // 2 full KC panels + remainder
  for (const Trans ta : {Trans::No, Trans::Yes}) {
    for (const Trans tb : {Trans::No, Trans::Yes}) {
      DMatrix a(ta == Trans::No ? m : k, ta == Trans::No ? k : m);
      DMatrix b(tb == Trans::No ? k : n, tb == Trans::No ? n : k);
      DMatrix c(m, n);
      random_normal(a.view(), rng);
      random_normal(b.view(), rng);
      random_normal(c.view(), rng);

      const DMatrix expected = ref_gemm(op(a, ta), op(b, tb), -1.0, c, 1.0);
      DMatrix c_unpacked = c;
      gemm_unpacked(ta, tb, real_t(-1), a.cview(), b.cview(), real_t(1),
                    c_unpacked.view());
      gemm(ta, tb, real_t(-1), a.cview(), b.cview(), real_t(1), c.view());

      const real_t scale = 1 + norm_fro(expected.cview());
      EXPECT_LT(diff_fro(c.cview(), expected.cview()), 1e-10 * scale)
          << "packed ta=" << (ta == Trans::Yes) << " tb=" << (tb == Trans::Yes);
      EXPECT_LT(diff_fro(c_unpacked.cview(), expected.cview()), 1e-10 * scale)
          << "unpacked ta=" << (ta == Trans::Yes)
          << " tb=" << (tb == Trans::Yes);
    }
  }
}

// The packed path must honor sub-view strides (ld > rows) on every operand.
TEST(Gemm, PackedPathStridedViews) {
  Prng rng(31);
  const index_t m = 40, n = 24, k = 300;
  DMatrix abuf(m + 7, k + 3), bbuf(k + 5, n + 2), cbuf(m + 4, n + 6);
  random_normal(abuf.view(), rng);
  random_normal(bbuf.view(), rng);
  random_normal(cbuf.view(), rng);
  ConstView<real_t> a = abuf.cview().sub(3, 1, m, k);
  ConstView<real_t> b = bbuf.cview().sub(2, 2, k, n);

  DMatrix c0(m, n);
  copy<real_t>(cbuf.cview().sub(1, 3, m, n), c0.view());
  DMatrix a_dense(m, k), b_dense(k, n);
  copy<real_t>(a, a_dense.view());
  copy<real_t>(b, b_dense.view());
  const DMatrix expected = ref_gemm(a_dense, b_dense, 1.0, c0, 1.0);

  MatView<real_t> c = cbuf.view().sub(1, 3, m, n);
  gemm(Trans::No, Trans::No, real_t(1), a, b, real_t(1), c);
  DMatrix got(m, n);
  copy<real_t>(ConstView<real_t>(c), got.view());
  EXPECT_LT(diff_fro(got.cview(), expected.cview()),
            1e-10 * (1 + norm_fro(expected.cview())));
}

// The per-thread pack buffers are reused across calls, never their
// contents: a second gemm on the same operand buffer, mutated in place
// (same pointer, same shape), must see the new values. Pins the Native
// backend — Reference never packs — regardless of any BLR_BACKEND override.
TEST(Gemm, PackedPathRepacksOperandMutatedInPlace) {
  const la::Backend saved = la::current_backend();
  la::set_backend(la::Backend::Native);
  Prng rng(41);
  const index_t m = 32, n = 32, k = 32;  // above the packed-path threshold
  DMatrix a(m, k), b(k, n), c(m, n);
  random_normal(a.view(), rng);
  random_normal(b.view(), rng);
  fill(c.view(), real_t(0));
  gemm(Trans::No, Trans::No, real_t(1), a.cview(), b.cview(), real_t(0),
       c.view());

  for (index_t j = 0; j < b.cols(); ++j)
    for (index_t i = 0; i < b.rows(); ++i) b(i, j) = -2 * b(i, j) + 1;
  const DMatrix expected = ref_gemm(a, b, 1.0, c, 0.0);
  gemm(Trans::No, Trans::No, real_t(1), a.cview(), b.cview(), real_t(0),
       c.view());
  la::set_backend(saved);
  EXPECT_LT(diff_fro(c.cview(), expected.cview()),
            1e-12 * (1 + norm_fro(expected.cview())));
}

TEST(Gemm, BetaZeroIgnoresGarbageC) {
  Prng rng(3);
  DMatrix a(4, 4), b(4, 4), c(4, 4);
  random_normal(a.view(), rng);
  random_normal(b.view(), rng);
  fill(c.view(), std::numeric_limits<real_t>::quiet_NaN());
  gemm(Trans::No, Trans::No, real_t(1), a.cview(), b.cview(), real_t(0), c.view());
  EXPECT_TRUE(std::isfinite(norm_fro(c.cview())));
}

struct TrsmCase {
  Side side;
  Uplo uplo;
  Trans trans;
  Diag diag;
};

class TrsmTest : public ::testing::TestWithParam<std::tuple<Side, Uplo, Trans, Diag>> {};

TEST_P(TrsmTest, SolvesTriangularSystem) {
  const auto [side, uplo, trans, diag] = GetParam();
  const TrsmCase p{side, uplo, trans, diag};
  Prng rng(11);
  const index_t m = 13, n = 9;
  const index_t na = (p.side == Side::Left) ? m : n;

  // Well-conditioned triangular matrix.
  DMatrix a(na, na);
  random_normal(a.view(), rng);
  for (index_t i = 0; i < na; ++i) a(i, i) = 4 + std::abs(a(i, i));
  // Zero the non-referenced triangle to build the explicit operand.
  DMatrix tri(na, na);
  for (index_t j = 0; j < na; ++j) {
    for (index_t i = 0; i < na; ++i) {
      const bool lower = i >= j;
      if ((p.uplo == Uplo::Lower && lower) || (p.uplo == Uplo::Upper && !lower) ||
          i == j) {
        tri(i, j) = (i == j && p.diag == Diag::Unit) ? 1.0 : a(i, j);
      }
    }
  }

  DMatrix b(m, n);
  random_normal(b.view(), rng);
  DMatrix x = b;
  trsm(p.side, p.uplo, p.trans, p.diag, real_t(1), a.cview(), x.view());

  // Check op(T)·X = B (left) or X·op(T) = B (right).
  const DMatrix t = op(tri, p.trans);
  DMatrix recon(m, n);
  if (p.side == Side::Left) {
    gemm(Trans::No, Trans::No, real_t(1), t.cview(), x.cview(), real_t(0), recon.view());
  } else {
    gemm(Trans::No, Trans::No, real_t(1), x.cview(), t.cview(), real_t(0), recon.view());
  }
  EXPECT_LT(diff_fro(recon.cview(), b.cview()), 1e-10 * norm_fro(b.cview()));
}

INSTANTIATE_TEST_SUITE_P(
    All16Variants, TrsmTest,
    ::testing::Combine(::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Lower, Uplo::Upper),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)),
    [](const auto& info) {
      std::string s;
      s += std::get<0>(info.param) == Side::Left ? "L" : "R";
      s += std::get<1>(info.param) == Uplo::Lower ? "Lo" : "Up";
      s += std::get<2>(info.param) == Trans::No ? "N" : "T";
      s += std::get<3>(info.param) == Diag::NonUnit ? "NU" : "U";
      return s;
    });

TEST(Trsm, AlphaScaling) {
  Prng rng(5);
  DMatrix a(4, 4);
  random_normal(a.view(), rng);
  for (index_t i = 0; i < 4; ++i) a(i, i) = 5;
  DMatrix b(4, 3);
  random_normal(b.view(), rng);
  DMatrix x1 = b, x2 = b;
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, real_t(2), a.cview(), x1.view());
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, real_t(1), a.cview(), x2.view());
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 4; ++i) EXPECT_NEAR(x1(i, j), 2 * x2(i, j), 1e-12);
}

TEST(Syrk, LowerNoTransMatchesGemm) {
  Prng rng(23);
  DMatrix a(10, 6);
  random_normal(a.view(), rng);
  DMatrix c(10, 10);
  random_normal(c.view(), rng);
  // Symmetrize reference input.
  for (index_t j = 0; j < 10; ++j)
    for (index_t i = 0; i < j; ++i) c(i, j) = c(j, i);
  DMatrix ref = c;
  gemm(Trans::No, Trans::Yes, real_t(-1), a.cview(), a.cview(), real_t(1), ref.view());
  DMatrix out = c;
  syrk(Uplo::Lower, Trans::No, real_t(-1), a.cview(), real_t(1), out.view());
  for (index_t j = 0; j < 10; ++j)
    for (index_t i = j; i < 10; ++i) EXPECT_NEAR(out(i, j), ref(i, j), 1e-11);
}

TEST(Syrk, UpperTransMatchesGemm) {
  Prng rng(29);
  DMatrix a(5, 8);
  random_normal(a.view(), rng);
  DMatrix c(8, 8);
  DMatrix ref = c;
  gemm(Trans::Yes, Trans::No, real_t(1), a.cview(), a.cview(), real_t(0), ref.view());
  DMatrix out = c;
  syrk(Uplo::Upper, Trans::Yes, real_t(1), a.cview(), real_t(0), out.view());
  for (index_t j = 0; j < 8; ++j)
    for (index_t i = 0; i <= j; ++i) EXPECT_NEAR(out(i, j), ref(i, j), 1e-11);
}

TEST(Gemv, BothTransposes) {
  Prng rng(31);
  DMatrix a(6, 4);
  random_normal(a.view(), rng);
  std::vector<real_t> x{1, -2, 3, 0.5};
  std::vector<real_t> y(6, 1.0);
  gemv(Trans::No, real_t(2), a.cview(), x.data(), real_t(-1), y.data());
  for (index_t i = 0; i < 6; ++i) {
    real_t s = -1.0;
    for (index_t j = 0; j < 4; ++j) s += 2 * a(i, j) * x[static_cast<std::size_t>(j)];
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], s, 1e-12);
  }
  std::vector<real_t> z(4, 0.0);
  std::vector<real_t> w{1, 1, 1, 1, 1, 1};
  gemv(Trans::Yes, real_t(1), a.cview(), w.data(), real_t(0), z.data());
  for (index_t j = 0; j < 4; ++j) {
    real_t s = 0;
    for (index_t i = 0; i < 6; ++i) s += a(i, j);
    EXPECT_NEAR(z[static_cast<std::size_t>(j)], s, 1e-12);
  }
}

TEST(Level1, DotAxpyNrm2) {
  std::vector<real_t> x{3, 4};
  EXPECT_DOUBLE_EQ(nrm2(2, x.data()), 5.0);
  std::vector<real_t> y{1, 1};
  EXPECT_DOUBLE_EQ(dot(2, x.data(), y.data()), 7.0);
  axpy(2, real_t(2), x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
  scal(2, real_t(0.5), y.data());
  EXPECT_DOUBLE_EQ(y[0], 3.5);
}

TEST(Norms, FroMaxOne) {
  DMatrix a(2, 2);
  a(0, 0) = 3;
  a(1, 0) = -4;
  a(0, 1) = 1;
  EXPECT_DOUBLE_EQ(norm_fro(a.cview()), std::sqrt(26.0));
  EXPECT_DOUBLE_EQ(norm_max(a.cview()), 4.0);
  EXPECT_DOUBLE_EQ(norm_one(a.cview()), 7.0);
}

} // namespace
