#include "core/kernels_dispatch.hpp"

#include <chrono>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/factorizations.hpp"

namespace blr::core {

const char* kernel_op_name(KernelOp op) {
  switch (op) {
    case KernelOp::Getrf: return "getrf";
    case KernelOp::Potrf: return "potrf";
    case KernelOp::Trsm: return "trsm";
    case KernelOp::Gemm: return "gemm";
    case KernelOp::Lr2Lr: return "lr2lr";
    case KernelOp::Lr2Ge: return "lr2ge";
    case KernelOp::Compress: return "compress";
    case KernelOp::SolveTrsm: return "solve_trsm";
    case KernelOp::SolveGemm: return "solve_gemm";
    case KernelOp::kCount: break;
  }
  return "?";
}

namespace {

std::uint64_t ctx_bytes(const KernelCtx& ctx) {
  std::uint64_t b = 0;
  if (ctx.a != nullptr) b += ctx.a->storage_bytes();
  if (ctx.b != nullptr) b += ctx.b->storage_bytes();
  if (ctx.c != nullptr) b += ctx.c->storage_bytes();
  if (ctx.view.data != nullptr) {
    b += static_cast<std::uint64_t>(ctx.view.rows) *
         static_cast<std::uint64_t>(ctx.view.cols) * sizeof(real_t);
  }
  if (ctx.in.data != nullptr) {
    b += static_cast<std::uint64_t>(ctx.in.rows) *
         static_cast<std::uint64_t>(ctx.in.cols) * sizeof(real_t);
  }
  return b;
}

// ---- built-in kernels ----------------------------------------------------

void k_getrf(KernelCtx& ctx) {
  if (ctx.pivot_cutoff > 0) {
    la::getrf_static(ctx.c->dense().view(), *ctx.piv, ctx.pivot_cutoff,
                     ctx.replaced);
    ctx.info = 0;
  } else {
    ctx.info = la::getrf(ctx.c->dense().view(), *ctx.piv);
  }
}

void k_potrf(KernelCtx& ctx) { ctx.info = la::potrf(ctx.c->dense().view()); }

void k_trsm_dense(KernelCtx& ctx) {
  const la::DConstView diag = ctx.diag->cview();
  la::DMatrix& d = ctx.c->dense();
  if (!ctx.upper) {
    if (ctx.llt) {
      la::trsm(la::Side::Right, la::Uplo::Lower, la::Trans::Yes,
               la::Diag::NonUnit, real_t(1), diag, d.view());
    } else {
      la::trsm(la::Side::Right, la::Uplo::Upper, la::Trans::No,
               la::Diag::NonUnit, real_t(1), diag, d.view());
    }
    return;
  }
  // U-side (LU mirror): local pivoting permutes the supernode's rows = the
  // width axis of the stored transpose, i.e. column swaps here.
  for (std::size_t j = 0; j < ctx.piv->size(); ++j) {
    const index_t p = (*ctx.piv)[j];
    if (p != static_cast<index_t>(j)) {
      for (index_t r = 0; r < d.rows(); ++r)
        std::swap(d(r, static_cast<index_t>(j)), d(r, p));
    }
  }
  la::trsm(la::Side::Right, la::Uplo::Lower, la::Trans::Yes, la::Diag::Unit,
           real_t(1), diag, d.view());
}

void k_trsm_lowrank(KernelCtx& ctx) {
  const la::DConstView diag = ctx.diag->cview();
  la::DMatrix& v = ctx.c->lr().v;
  if (!ctx.upper) {
    if (ctx.llt) {
      la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No,
               la::Diag::NonUnit, real_t(1), diag, v.view());
    } else {
      la::trsm(la::Side::Left, la::Uplo::Upper, la::Trans::Yes,
               la::Diag::NonUnit, real_t(1), diag, v.view());
    }
    return;
  }
  // U-side: V rows carry the width axis — swap V rows, then unit-lower solve.
  for (std::size_t j = 0; j < ctx.piv->size(); ++j) {
    const index_t p = (*ctx.piv)[j];
    if (p != static_cast<index_t>(j)) {
      for (index_t r = 0; r < v.cols(); ++r)
        std::swap(v(static_cast<index_t>(j), r), v(p, r));
    }
  }
  la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No, la::Diag::Unit,
           real_t(1), diag, v.view());
}

void k_gemm_dense(KernelCtx& ctx) {
  if (ctx.view.data != nullptr) {
    // Fused: subtract A·Bᵗ (or its transpose, B·Aᵗ) straight into the view.
    if (ctx.transpose) {
      la::gemm(la::Trans::No, la::Trans::Yes, real_t(-1),
               ctx.b->dense().cview(), ctx.a->dense().cview(), real_t(1),
               ctx.view);
    } else {
      la::gemm(la::Trans::No, la::Trans::Yes, real_t(-1),
               ctx.a->dense().cview(), ctx.b->dense().cview(), real_t(1),
               ctx.view);
    }
    return;
  }
  ctx.out = lr::ab_t_product(*ctx.a, *ctx.b, ctx.kind, ctx.tolerance,
                             ctx.need_ortho, ctx.out_cat);
}

void k_gemm_lr(KernelCtx& ctx) {
  ctx.out = lr::ab_t_product(*ctx.a, *ctx.b, ctx.kind, ctx.tolerance,
                             ctx.need_ortho, ctx.out_cat);
}

void k_lr2lr(KernelCtx& ctx) {
  lr::lr2lr_add(*ctx.c, *ctx.a, ctx.roff, ctx.coff, ctx.kind, ctx.tolerance,
                ctx.transpose);
}

void k_lr2ge(KernelCtx& ctx) {
  if (ctx.c != nullptr) {
    lr::add_contribution_dense(ctx.c->dense(), *ctx.a, ctx.roff, ctx.coff,
                               ctx.transpose);
  } else {
    lr::apply_to_dense(*ctx.a, ctx.view, ctx.transpose);
  }
}

void k_compress(KernelCtx& ctx) {
  if (ctx.warm_hint >= 0) {
    auto wr = lr::compress_warm(ctx.kind, ctx.in, ctx.tolerance, ctx.max_rank,
                                ctx.warm_hint);
    ctx.out_lr = std::move(wr.lr);
    ctx.warm_grew = wr.grew;
  } else {
    ctx.out_lr = lr::compress(ctx.kind, ctx.in, ctx.tolerance, ctx.max_rank);
  }
}

// ---- triangular-solve kernels (DESIGN.md §16) ----------------------------
//
// The solve phase routes its per-segment operations through the registry so
// they run on the packed backend engine and show up in the kernel table.
// `ctx.transpose` carries the sweep direction (false = forward, true =
// backward); `ctx.view` is the in-out RHS segment.

void k_solve_trsm(KernelCtx& ctx) {
  const la::DConstView diag = ctx.diag->cview();
  la::DView xk = ctx.view;
  if (!ctx.transpose) {
    // Forward: local pivot swaps (LU only), then the unit/non-unit lower
    // solve of L.
    if (!ctx.llt) {
      for (std::size_t j = 0; j < ctx.piv->size(); ++j) {
        const index_t p = (*ctx.piv)[j];
        if (p != static_cast<index_t>(j)) {
          for (index_t r = 0; r < xk.cols; ++r)
            std::swap(xk(static_cast<index_t>(j), r), xk(p, r));
        }
      }
      la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No, la::Diag::Unit,
               real_t(1), diag, xk);
    } else {
      la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No,
               la::Diag::NonUnit, real_t(1), diag, xk);
    }
    return;
  }
  // Backward: Lᵗ for Cholesky, U for LU.
  if (ctx.llt) {
    la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::Yes, la::Diag::NonUnit,
             real_t(1), diag, xk);
  } else {
    la::trsm(la::Side::Left, la::Uplo::Upper, la::Trans::No, la::Diag::NonUnit,
             real_t(1), diag, xk);
  }
}

void k_solve_gemm_dense(KernelCtx& ctx) {
  // Forward: xout -= blk·xin; backward: xout -= blkᵗ·xin.
  la::gemm(ctx.transpose ? la::Trans::Yes : la::Trans::No, la::Trans::No,
           real_t(-1), ctx.a->dense().cview(), ctx.in, real_t(1), ctx.view);
}

void k_solve_gemm_lr(KernelCtx& ctx) {
  // Two rank-sized gemvs per RHS column: tmp = svᵗ·xin, xout -= su·tmp.
  // dispatch::solve_gemm already swapped the u/v roles for the backward
  // sweep, so both directions run the same pair; the fp32 key differs only
  // in where su/sv point (the per-epoch widen cache).
  la::DMatrix tmp(ctx.su.cols, ctx.in.cols);
  la::gemm(la::Trans::Yes, la::Trans::No, real_t(1), ctx.sv, ctx.in, real_t(0),
           tmp.view());
  la::gemm(la::Trans::No, la::Trans::No, real_t(-1), ctx.su, tmp.cview(),
           real_t(1), ctx.view);
}

// ---- fp32 promotion wrappers (DESIGN.md §10) -----------------------------
//
// Fp32 is an at-rest format only: these wrappers widen the stored factors to
// fp64, run the exact same kernels as the fp64 keys, and round in-out
// targets back down. Operand tiles may be read concurrently by other update
// tasks, so their promotion always goes through Workspace-tracked scratch
// copies; in-out targets are exclusively owned (panel solve) or held under
// their supernode's lock (extend-add), so those convert in place.

void k_trsm_lr32(KernelCtx& ctx) {
  ctx.c->promote_lowrank();
  k_trsm_lowrank(ctx);
  ctx.c->demote_lowrank();
}

void k_gemm_promote(KernelCtx& ctx) {
  lr::Tile sa, sb;
  const lr::Tile* a = ctx.a;
  const lr::Tile* b = ctx.b;
  if (a->precision() == lr::Precision::Fp32) {
    sa = lr::promote_copy(*a);
    a = &sa;
  }
  if (b->precision() == lr::Precision::Fp32) {
    sb = lr::promote_copy(*b);
    b = &sb;
  }
  ctx.out = lr::ab_t_product(*a, *b, ctx.kind, ctx.tolerance, ctx.need_ortho,
                             ctx.out_cat);
}

void k_lr2lr_c32(KernelCtx& ctx) {
  ctx.c->promote_lowrank();
  k_lr2lr(ctx);
  // Demotion is sticky: the recompressed result goes back to fp32 unless the
  // extend-add decided to fall back to dense storage.
  if (ctx.c->is_lowrank()) ctx.c->demote_lowrank();
}

} // namespace

KernelDispatch& KernelDispatch::instance() {
  static KernelDispatch d;
  return d;
}

KernelDispatch::KernelDispatch() {
  const Prec f64 = Prec::Fp64;
  const Prec f32 = Prec::Fp32;
  // Working-precision (fp64) kernels — the original 13.
  register_kernel(KernelOp::Getrf, Rep::Dense, f64, Rep::None, f64,
                  "getrf[ge]", Kernel::BlockFactorization, k_getrf);
  register_kernel(KernelOp::Potrf, Rep::Dense, f64, Rep::None, f64,
                  "potrf[ge]", Kernel::BlockFactorization, k_potrf);
  register_kernel(KernelOp::Trsm, Rep::Dense, f64, Rep::None, f64, "trsm[ge]",
                  Kernel::PanelSolve, k_trsm_dense);
  register_kernel(KernelOp::Trsm, Rep::LowRank, f64, Rep::None, f64,
                  "trsm[lr]", Kernel::PanelSolve, k_trsm_lowrank);
  register_kernel(KernelOp::Gemm, Rep::Dense, f64, Rep::Dense, f64,
                  "gemm[ge,ge]", Kernel::DenseUpdate, k_gemm_dense);
  register_kernel(KernelOp::Gemm, Rep::LowRank, f64, Rep::Dense, f64,
                  "gemm[lr,ge]", Kernel::LrProduct, k_gemm_lr);
  register_kernel(KernelOp::Gemm, Rep::Dense, f64, Rep::LowRank, f64,
                  "gemm[ge,lr]", Kernel::LrProduct, k_gemm_lr);
  register_kernel(KernelOp::Gemm, Rep::LowRank, f64, Rep::LowRank, f64,
                  "gemm[lr,lr]", Kernel::LrProduct, k_gemm_lr);
  register_kernel(KernelOp::Lr2Lr, Rep::Dense, f64, Rep::None, f64,
                  "lr2lr[ge]", Kernel::LrAddition, k_lr2lr);
  register_kernel(KernelOp::Lr2Lr, Rep::LowRank, f64, Rep::None, f64,
                  "lr2lr[lr]", Kernel::LrAddition, k_lr2lr);
  register_kernel(KernelOp::Lr2Ge, Rep::Dense, f64, Rep::None, f64,
                  "lr2ge[ge]", Kernel::DenseUpdate, k_lr2ge);
  register_kernel(KernelOp::Lr2Ge, Rep::LowRank, f64, Rep::None, f64,
                  "lr2ge[lr]", Kernel::DenseUpdate, k_lr2ge);
  register_kernel(KernelOp::Compress, Rep::Dense, f64, Rep::None, f64,
                  "compress[ge]", Kernel::Compression, k_compress);
  // Triangular-solve kernels (DESIGN.md §16). All charge the Kernel::Solve
  // stats row — the row the monolithic sweep used to time as one block — so
  // Table 2 totals keep their meaning. The lr32 key runs the same fp64 math
  // as lr: its operands are the widen-cache copies, the key only separates
  // the counter rows per at-rest precision.
  register_kernel(KernelOp::SolveTrsm, Rep::Dense, f64, Rep::None, f64,
                  "solve_trsm[ge]", Kernel::Solve, k_solve_trsm);
  register_kernel(KernelOp::SolveGemm, Rep::Dense, f64, Rep::None, f64,
                  "solve_gemm[ge]", Kernel::Solve, k_solve_gemm_dense);
  register_kernel(KernelOp::SolveGemm, Rep::LowRank, f64, Rep::None, f64,
                  "solve_gemm[lr]", Kernel::Solve, k_solve_gemm_lr);
  register_kernel(KernelOp::SolveGemm, Rep::LowRank, f32, Rep::None, f64,
                  "solve_gemm[lr32]", Kernel::Solve, k_solve_gemm_lr);
  // Mixed-precision promotion wrappers. Dense tiles are never fp32, so only
  // low-rank operand slots get Fp32 keys; the None slot of trsm/lr2lr
  // carries the target tile's precision instead.
  register_kernel(KernelOp::Trsm, Rep::LowRank, f32, Rep::None, f64,
                  "trsm[lr32]", Kernel::PanelSolve, k_trsm_lr32);
  register_kernel(KernelOp::Gemm, Rep::LowRank, f32, Rep::Dense, f64,
                  "gemm[lr32,ge]", Kernel::LrProduct, k_gemm_promote);
  register_kernel(KernelOp::Gemm, Rep::Dense, f64, Rep::LowRank, f32,
                  "gemm[ge,lr32]", Kernel::LrProduct, k_gemm_promote);
  register_kernel(KernelOp::Gemm, Rep::LowRank, f32, Rep::LowRank, f64,
                  "gemm[lr32,lr]", Kernel::LrProduct, k_gemm_promote);
  register_kernel(KernelOp::Gemm, Rep::LowRank, f64, Rep::LowRank, f32,
                  "gemm[lr,lr32]", Kernel::LrProduct, k_gemm_promote);
  register_kernel(KernelOp::Gemm, Rep::LowRank, f32, Rep::LowRank, f32,
                  "gemm[lr32,lr32]", Kernel::LrProduct, k_gemm_promote);
  register_kernel(KernelOp::Lr2Lr, Rep::Dense, f64, Rep::None, f32,
                  "lr2lr[ge,c32]", Kernel::LrAddition, k_lr2lr_c32);
  register_kernel(KernelOp::Lr2Lr, Rep::LowRank, f64, Rep::None, f32,
                  "lr2lr[lr,c32]", Kernel::LrAddition, k_lr2lr_c32);
}

void KernelDispatch::register_kernel(KernelOp op, Rep a, Prec pa, Rep b,
                                     Prec pb, const char* name, Kernel timer,
                                     KernelFn fn) {
  // Backend-agnostic kernel: the same function serves every backend (its
  // la:: calls dispatch per-backend one layer down), but each backend keeps
  // its own counter row so A/B runs report separately.
  for (int be = 0; be < kBackends; ++be) {
    register_kernel_for(static_cast<la::Backend>(be), op, a, pa, b, pb, name,
                        timer, fn);
  }
}

void KernelDispatch::register_kernel_for(la::Backend backend, KernelOp op,
                                         Rep a, Prec pa, Rep b, Prec pb,
                                         const char* name, Kernel timer,
                                         KernelFn fn) {
  Entry& e = at(backend, op, a, pa, b, pb);
  if (e.fn == nullptr) order_.push_back(&e);
  e.name = name;
  e.backend = backend;
  e.timer = timer;
  e.fn = fn;
}

bool KernelDispatch::has_kernel(la::Backend backend, KernelOp op, Rep a,
                                Prec pa, Rep b, Prec pb) const {
  return at(backend, op, a, pa, b, pb).fn != nullptr;
}

void KernelDispatch::run(KernelOp op, Rep a, Prec pa, Rep b, Prec pb,
                         KernelCtx& ctx) {
  Entry& e = at(la::current_backend(), op, a, pa, b, pb);
  if (e.fn == nullptr) {
    throw Error(std::string("no kernel registered for ") + kernel_op_name(op));
  }
  e.calls.fetch_add(1, std::memory_order_relaxed);
  e.bytes.fetch_add(ctx_bytes(ctx), std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  e.fn(ctx);
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  e.nanos.fetch_add(ns, std::memory_order_relaxed);
  KernelStats::instance().add(e.timer, ns);
}

std::vector<DispatchCount> KernelDispatch::snapshot() const {
  std::vector<DispatchCount> out;
  out.reserve(order_.size());
  for (const Entry* e : order_) {
    const std::uint64_t calls = e->calls.load(std::memory_order_relaxed);
    if (calls == 0) continue;
    DispatchCount d;
    d.kernel = e->name;
    d.backend = la::backend_name(e->backend);
    d.calls = calls;
    d.bytes = e->bytes.load(std::memory_order_relaxed);
    d.seconds =
        static_cast<double>(e->nanos.load(std::memory_order_relaxed)) * 1e-9;
    out.push_back(std::move(d));
  }
  return out;
}

void KernelDispatch::reset_counters() {
  for (auto& backends : table_) {
    for (auto& ops : backends) {
      for (auto& reps_a : ops) {
        for (auto& precs_a : reps_a) {
          for (auto& reps_b : precs_a) {
            for (auto& e : reps_b) {
              e.calls.store(0, std::memory_order_relaxed);
              e.bytes.store(0, std::memory_order_relaxed);
              e.nanos.store(0, std::memory_order_relaxed);
            }
          }
        }
      }
    }
  }
}

namespace dispatch {

index_t factor_diag(lr::Tile& diag, std::vector<index_t>& piv, bool llt,
                    real_t pivot_cutoff, index_t& replaced) {
  KernelCtx ctx;
  ctx.c = &diag;
  ctx.piv = &piv;
  ctx.pivot_cutoff = pivot_cutoff;
  KernelDispatch::instance().run(llt ? KernelOp::Potrf : KernelOp::Getrf,
                                 Rep::Dense, Prec::Fp64, Rep::None,
                                 Prec::Fp64, ctx);
  replaced = ctx.replaced;
  return ctx.info;
}

void panel_solve(const lr::Tile& diag, const std::vector<index_t>& piv,
                 lr::Tile& blk, bool llt, bool upper) {
  KernelCtx ctx;
  ctx.c = &blk;
  ctx.diag = &diag.dense();
  ctx.piv = const_cast<std::vector<index_t>*>(&piv);
  ctx.llt = llt;
  ctx.upper = upper;
  KernelDispatch::instance().run(KernelOp::Trsm, rep_of(blk), prec_of(blk),
                                 Rep::None, Prec::Fp64, ctx);
}

lr::Tile product(const lr::Tile& a, const lr::Tile& b, lr::CompressionKind kind,
                 real_t tol, bool need_ortho) {
  KernelCtx ctx;
  ctx.a = &a;
  ctx.b = &b;
  ctx.kind = kind;
  ctx.tolerance = tol;
  ctx.need_ortho = need_ortho;
  ctx.out_cat = MemCategory::Workspace;
  KernelDispatch::instance().run(KernelOp::Gemm, rep_of(a), prec_of(a),
                                 rep_of(b), prec_of(b), ctx);
  return std::move(ctx.out);
}

void gemm_into(la::DView target, const lr::Tile& a, const lr::Tile& b,
               bool transpose) {
  KernelCtx ctx;
  ctx.a = &a;
  ctx.b = &b;
  ctx.view = target;
  ctx.transpose = transpose;
  KernelDispatch::instance().run(KernelOp::Gemm, Rep::Dense, Prec::Fp64,
                                 Rep::Dense, Prec::Fp64, ctx);
}

void apply_contribution(la::DView target, const lr::Tile& p, bool transpose) {
  KernelCtx ctx;
  ctx.a = &p;
  ctx.view = target;
  ctx.transpose = transpose;
  KernelDispatch::instance().run(KernelOp::Lr2Ge, rep_of(p), prec_of(p),
                                 Rep::None, Prec::Fp64, ctx);
}

void extend_add(lr::Tile& c, const lr::Tile& p, index_t roff, index_t coff,
                lr::CompressionKind kind, real_t tol, bool transpose) {
  if (c.state() == lr::TileState::Factored) {
    throw Error("extend-add into a tile that is already Factored");
  }
  KernelCtx ctx;
  ctx.c = &c;
  ctx.a = &p;
  ctx.roff = roff;
  ctx.coff = coff;
  ctx.kind = kind;
  ctx.tolerance = tol;
  ctx.transpose = transpose;
  // The None slot's precision carries the *target* tile's precision, so
  // extend-adds into fp32 tiles route to the promote/demote wrapper and get
  // their own counter row.
  KernelDispatch::instance().run(c.is_lowrank() ? KernelOp::Lr2Lr
                                                : KernelOp::Lr2Ge,
                                 rep_of(p), prec_of(p), Rep::None, prec_of(c),
                                 ctx);
}

void solve_trsm(const lr::Tile& diag, const std::vector<index_t>& piv,
                la::DView xk, bool llt, bool backward) {
  KernelCtx ctx;
  ctx.diag = &diag.dense();
  ctx.piv = const_cast<std::vector<index_t>*>(&piv);
  ctx.view = xk;
  ctx.llt = llt;
  ctx.transpose = backward;
  KernelDispatch::instance().run(KernelOp::SolveTrsm, Rep::Dense, Prec::Fp64,
                                 Rep::None, Prec::Fp64, ctx);
}

void solve_gemm(const lr::Tile& blk, la::DConstView u, la::DConstView v,
                la::DConstView xin, la::DView xout, bool backward) {
  KernelCtx ctx;
  ctx.a = &blk;
  ctx.in = xin;
  ctx.view = xout;
  ctx.transpose = backward;
  if (blk.is_lowrank()) {
    // Forward applies u·(vᵗ·xin), backward v·(uᵗ·xin): swap the factor
    // roles here so the kernel body is direction-agnostic.
    ctx.su = backward ? v : u;
    ctx.sv = backward ? u : v;
  }
  KernelDispatch::instance().run(KernelOp::SolveGemm, rep_of(blk),
                                 prec_of(blk), Rep::None, Prec::Fp64, ctx);
}

std::optional<lr::LrMatrix> compress(lr::CompressionKind kind, la::DConstView a,
                                     real_t tol, index_t max_rank) {
  KernelCtx ctx;
  ctx.in = a;
  ctx.kind = kind;
  ctx.tolerance = tol;
  ctx.max_rank = max_rank;
  KernelDispatch::instance().run(KernelOp::Compress, Rep::Dense, Prec::Fp64,
                                 Rep::None, Prec::Fp64, ctx);
  return std::move(ctx.out_lr);
}

std::optional<lr::LrMatrix> compress(lr::CompressionKind kind, la::DConstView a,
                                     real_t tol, index_t max_rank,
                                     index_t rank_guess, bool* grew) {
  KernelCtx ctx;
  ctx.in = a;
  ctx.kind = kind;
  ctx.tolerance = tol;
  ctx.max_rank = max_rank;
  ctx.warm_hint = rank_guess;
  KernelDispatch::instance().run(KernelOp::Compress, Rep::Dense, Prec::Fp64,
                                 Rep::None, Prec::Fp64, ctx);
  if (grew != nullptr) *grew = ctx.warm_grew;
  return std::move(ctx.out_lr);
}

} // namespace dispatch

} // namespace blr::core
