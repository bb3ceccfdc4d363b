// Parallel supernodal triangular solve tests (ctest label `solve`;
// DESIGN.md §16).
//
// Pins the solve-phase contracts:
//  - the parallel solve — DAG drain over the solve pool, or column-split
//    for wide multi-RHS batches — is memcmp-identical to the sequential
//    two-sweep, across strategies, dataflow engines, precisions, solve
//    thread counts and RHS widths;
//  - the SolvePlan is built once per symbolic plan and replayed by every
//    refactorize (plan_builds/plan_reuses counters);
//  - the fp32 widen cache is built lazily on the first solve, hit by every
//    later low-rank apply, and invalidated wholesale by refactorize();
//  - solve kernels are routed through KernelDispatch (solve_trsm/solve_gemm
//    rows in the kernel table);
//  - a Session serving concurrent clients over the parallel solve returns
//    bit-identical answers and reports the solve-phase detail per request.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "blr.hpp"
#include "core/solve_plan.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

SolverOptions base_options(Strategy strategy, Dataflow dataflow,
                           TilePrecision precision, int threads) {
  SolverOptions o;
  o.strategy = strategy;
  o.dataflow = dataflow;
  o.precision = precision;
  o.threads = threads;
  o.tolerance = 1e-8;
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

std::vector<real_t> seeded_block(index_t n, index_t nrhs, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(nrhs));
  for (auto& v : b) v = rng.normal();
  return b;
}

/// Same pattern, different values (keeps SPD matrices SPD).
CscMatrix step_values(const CscMatrix& a, real_t scale, real_t shift) {
  CscMatrix out = a;
  for (index_t j = 0; j < out.cols(); ++j) {
    for (index_t p = out.colptr()[static_cast<std::size_t>(j)];
         p < out.colptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      out.values()[static_cast<std::size_t>(p)] *= scale;
      if (out.rowind()[static_cast<std::size_t>(p)] == j) {
        out.values()[static_cast<std::size_t>(p)] += shift;
      }
    }
  }
  return out;
}

// ---- (a) parallel == sequential, bitwise ----------------------------------

struct SolveConfig {
  Strategy strategy;
  Dataflow dataflow;
  TilePrecision precision;
  int factor_threads;
  int solve_threads;
};

std::string config_name(const ::testing::TestParamInfo<SolveConfig>& info) {
  std::string s = core::strategy_name(info.param.strategy);
  s.erase(std::remove_if(s.begin(), s.end(),
                         [](char c) { return c == ' ' || c == '-'; }),
          s.end());
  s += info.param.dataflow == Dataflow::Dag ? "Dag" : "Barrier";
  s += info.param.precision == TilePrecision::MixedTiles ? "Mixed" : "Fp64";
  s += "S" + std::to_string(info.param.solve_threads);
  return s;
}

class ParallelSolveDeterminism : public ::testing::TestWithParam<SolveConfig> {
};

// Every execution mode of the parallel solve — small-RHS DAG drain, wide
// column split — reproduces the sequential sweep bit for bit.
TEST_P(ParallelSolveDeterminism, MatchesSequentialBitwise) {
  const SolveConfig cfg = GetParam();
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  const index_t n = a.rows();

  SolverOptions seq_opts = base_options(cfg.strategy, cfg.dataflow,
                                        cfg.precision, cfg.factor_threads);
  seq_opts.solve_parallel = false;
  SolverOptions par_opts = seq_opts;
  par_opts.solve_parallel = true;
  par_opts.solve_threads = cfg.solve_threads;

  Solver seq(seq_opts);
  Solver par(par_opts);
  seq.factorize(a);
  par.factorize(a);

  // nrhs 1 and 3 stay under the 2×threads split threshold (DAG drain);
  // 4×threads forces the column-split path.
  const index_t widths[] = {1, 3,
                            static_cast<index_t>(4 * cfg.solve_threads)};
  for (const index_t nrhs : widths) {
    const auto b = seeded_block(n, nrhs, 1000 + static_cast<std::uint64_t>(nrhs));
    std::vector<real_t> xs(b.size()), xp(b.size());
    seq.solve(la::DConstView(b.data(), n, nrhs, n),
              la::DView(xs.data(), n, nrhs, n));
    par.solve(la::DConstView(b.data(), n, nrhs, n),
              la::DView(xp.data(), n, nrhs, n));
    ASSERT_EQ(0, std::memcmp(xs.data(), xp.data(), xs.size() * sizeof(real_t)))
        << "nrhs = " << nrhs;
  }

  // The parallel paths actually engaged (and the sequential solver never
  // touched its — nonexistent — pool).
  const core::SolvePhaseStats& sp = par.stats().solve_phase;
  EXPECT_GT(sp.parallel_solves, 0u);
  EXPECT_GT(sp.split_solves, 0u);
  EXPECT_GT(sp.tasks_executed, 0u);
  EXPECT_EQ(seq.stats().solve_phase.parallel_solves, 0u);
  EXPECT_EQ(seq.stats().solve_phase.split_solves, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelSolveDeterminism,
    ::testing::Values(
        SolveConfig{Strategy::JustInTime, Dataflow::Barrier,
                    TilePrecision::Fp64, 1, 2},
        SolveConfig{Strategy::JustInTime, Dataflow::Dag,
                    TilePrecision::Fp64, 2, 8},
        SolveConfig{Strategy::JustInTime, Dataflow::Dag,
                    TilePrecision::MixedTiles, 2, 2},
        SolveConfig{Strategy::MinimalMemory, Dataflow::Barrier,
                    TilePrecision::Fp64, 1, 8},
        SolveConfig{Strategy::MinimalMemory, Dataflow::Dag,
                    TilePrecision::MixedTiles, 2, 8},
        SolveConfig{Strategy::Adaptive, Dataflow::Barrier,
                    TilePrecision::MixedTiles, 1, 2}),
    config_name);

// ---- (b) solve plan: built once, replayed by every refactorize ------------

TEST(SolvePlanCache, BuiltOnceReusedAcrossRefactorize) {
  const CscMatrix a1 = sparse::laplacian_3d(8, 8, 8);
  const CscMatrix a2 = step_values(a1, 1.5, 0.3);
  SolverOptions opts = base_options(Strategy::JustInTime, Dataflow::Barrier,
                                    TilePrecision::Fp64, 1);
  opts.solve_threads = 2;
  Solver solver(opts);
  solver.factorize(a1);
  EXPECT_EQ(solver.stats().solve_phase.plan_builds, 1u);
  EXPECT_EQ(solver.stats().solve_phase.plan_reuses, 0u);

  // The cached plan object is shared, not rebuilt.
  const auto p1 = solver.plan()->solve_plan();
  const auto p2 = solver.plan()->solve_plan();
  EXPECT_EQ(p1.get(), p2.get());

  // Structure: two sweeps of one diagonal task per supernode plus one task
  // per panel block each, all reachable, with a forward+backward critical
  // path of at least 2×(deepest chain).
  const core::SymbolicPlan& plan = *solver.plan();
  std::uint64_t expect = 0;
  for (index_t k = 0; k < plan.sf.num_cblks(); ++k) {
    expect += 2 + 2 * plan.sf.cblk(k).bloks.size();
  }
  EXPECT_EQ(p1->num_tasks(), expect);
  EXPECT_GT(p1->critical_path(), 0u);

  solver.refactorize(a2);
  EXPECT_EQ(solver.stats().solve_phase.plan_builds, 1u);
  EXPECT_EQ(solver.stats().solve_phase.plan_reuses, 1u);
  EXPECT_EQ(solver.plan()->solve_plan().get(), p1.get());

  // A fresh analyze drops the cache with the plan it belongs to.
  solver.analyze(a1);
  solver.factorize(a1);
  EXPECT_EQ(solver.stats().solve_phase.plan_builds, 1u);
}

// ---- (c) fp32 widen cache: lazy build, hits, refactorize invalidation -----

TEST(WidenCache, BuiltOnFirstSolveInvalidatedByRefactorize) {
  const CscMatrix a1 = sparse::laplacian_3d(12, 12, 12);
  const CscMatrix a2 = step_values(a1, 1.5, 0.3);
  SolverOptions opts = base_options(Strategy::MinimalMemory, Dataflow::Barrier,
                                    TilePrecision::MixedTiles, 1);
  opts.solve_threads = 2;
  Solver solver(opts);
  solver.factorize(a1);
  ASSERT_GT(solver.stats().num_fp32_blocks, 0);

  // Lazy: nothing widened until the first solve.
  EXPECT_EQ(solver.numeric().widen_cache_bytes(), 0u);
  const auto b = seeded_block(a1.rows(), 1, 9);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());
  const std::size_t bytes1 = solver.numeric().widen_cache_bytes();
  EXPECT_GT(bytes1, 0u);
  EXPECT_GT(solver.numeric().widen_cache_tiles(), 0u);
  EXPECT_GT(solver.stats().solve_phase.widen_hits, 0u);
  EXPECT_EQ(solver.stats().solve_phase.widen_bytes, bytes1);

  // Every later solve hits the cache instead of re-promoting.
  const std::uint64_t hits1 = solver.numeric().widen_hits();
  solver.solve(b.data(), x.data());
  EXPECT_GT(solver.numeric().widen_hits(), hits1);
  EXPECT_EQ(solver.numeric().widen_cache_bytes(), bytes1);

  // refactorize() produces fresh factors -> the old epoch's cache is gone
  // until the next solve rebuilds it against the new values.
  solver.refactorize(a2);
  EXPECT_EQ(solver.numeric().widen_cache_bytes(), 0u);
  EXPECT_EQ(solver.numeric().widen_hits(), 0u);
  solver.solve(b.data(), x.data());
  EXPECT_GT(solver.numeric().widen_cache_bytes(), 0u);
  EXPECT_LT(sparse::backward_error(a2, x.data(), b.data()), 1e-4);
}

// ---- (d) dispatch integration: solve kernels in the table -----------------

TEST(SolveDispatch, SolveKernelsCountedInKernelTable) {
  const CscMatrix a = sparse::laplacian_3d(12, 12, 12);
  SolverOptions opts = base_options(Strategy::MinimalMemory, Dataflow::Barrier,
                                    TilePrecision::MixedTiles, 1);
  opts.solve_threads = 2;
  Solver solver(opts);
  solver.factorize(a);
  const auto b = seeded_block(a.rows(), 1, 5);
  std::vector<real_t> x(b.size());
  solver.solve(b.data(), x.data());

  std::uint64_t trsm_calls = 0, gemm_calls = 0, lr32_calls = 0;
  for (const core::DispatchCount& d : solver.stats().dispatch) {
    if (d.kernel.rfind("solve_trsm", 0) == 0) trsm_calls += d.calls;
    if (d.kernel.rfind("solve_gemm", 0) == 0) gemm_calls += d.calls;
    if (d.kernel == "solve_gemm[lr32]") lr32_calls += d.calls;
  }
  // Two trsm per supernode (forward + backward).
  EXPECT_EQ(trsm_calls,
            2 * static_cast<std::uint64_t>(solver.stats().num_cblks));
  EXPECT_GT(gemm_calls, 0u);
  // fp32-at-rest tiles route through the widened-operand lr32 kernel row.
  EXPECT_GT(lr32_calls, 0u);
  EXPECT_GT(solver.stats().solve_phase.tasks_executed, 0u);
}

// ---- (e) session: concurrent clients over the parallel solve --------------

TEST(SessionParallelSolve, ConcurrentClientsBitIdenticalToSequential) {
  const CscMatrix a = sparse::laplacian_3d(10, 10, 10);
  const index_t n = a.rows();
  SolverOptions opts = base_options(Strategy::JustInTime, Dataflow::Dag,
                                    TilePrecision::Fp64, 2);
  opts.solve_threads = 4;

  SolverOptions ref_opts = opts;
  ref_opts.solve_parallel = false;
  ref_opts.threads = 1;
  ref_opts.dataflow = Dataflow::Barrier;

  Session session(opts);
  session.refactorize(a);
  Solver ref(ref_opts);
  ref.factorize(a);

  constexpr int kClients = 8;
  std::vector<std::vector<real_t>> bs, xs, want;
  for (int i = 0; i < kClients; ++i) {
    bs.push_back(seeded_block(n, 1, 100 + static_cast<std::uint64_t>(i)));
    xs.emplace_back(static_cast<std::size_t>(n));
    want.emplace_back(static_cast<std::size_t>(n));
    ref.solve(bs.back().data(), want.back().data());
  }

  std::vector<SolveStats> st(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      st[static_cast<std::size_t>(i)] =
          session.solve(bs[static_cast<std::size_t>(i)].data(),
                        xs[static_cast<std::size_t>(i)].data());
    });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_EQ(0, std::memcmp(xs[static_cast<std::size_t>(i)].data(),
                             want[static_cast<std::size_t>(i)].data(),
                             static_cast<std::size_t>(n) * sizeof(real_t)))
        << "client " << i;
    // Per-request solve-phase detail: the blocked solve that served each
    // request ran on the solve engine (DAG drain or column split) with the
    // cached plan attached, and reported its task count.
    const SolveStats& s = st[static_cast<std::size_t>(i)];
    EXPECT_TRUE(s.parallel || s.column_split) << "client " << i;
    EXPECT_GT(s.solve_tasks, 0u) << "client " << i;
    if (s.parallel) {
      EXPECT_TRUE(s.plan_reused) << "client " << i;
    }
  }
}

// Direct Solver::solve entry points racing the session's queue must not
// deadlock or corrupt results: the engine lock's loser falls back to the
// sequential sweep, which is bit-identical anyway.
TEST(SessionParallelSolve, EngineContentionFallsBackSequentially) {
  const CscMatrix a = sparse::laplacian_3d(8, 8, 8);
  const index_t n = a.rows();
  SolverOptions opts = base_options(Strategy::JustInTime, Dataflow::Barrier,
                                    TilePrecision::Fp64, 1);
  opts.solve_threads = 2;
  Solver solver(opts);
  solver.factorize(a);

  const auto b = seeded_block(n, 1, 321);
  std::vector<real_t> want(static_cast<std::size_t>(n));
  solver.solve(b.data(), want.data());

  constexpr int kRacers = 6;
  std::vector<std::vector<real_t>> xs(kRacers);
  std::vector<std::thread> racers;
  racers.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    xs[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(n));
    racers.emplace_back([&, i] {
      // NumericFactor::solve is const and safe under concurrent callers;
      // stats capture is skipped to keep the race on the engine lock only.
      solver.numeric().solve(b.data(), xs[static_cast<std::size_t>(i)].data());
    });
  }
  for (auto& t : racers) t.join();
  for (int i = 0; i < kRacers; ++i) {
    ASSERT_EQ(0, std::memcmp(xs[static_cast<std::size_t>(i)].data(),
                             want.data(),
                             static_cast<std::size_t>(n) * sizeof(real_t)))
        << "racer " << i;
  }
}

} // namespace
