// Microbenchmarks of the low-rank kernels (§3 of the paper): SVD vs RRQR
// compression cost, LR product, and the LR2LR extend-add recompression.
// Also serves as the measured counterpart of the complexity Table 1.
//
// On top of the google-benchmark sections, a custom driver measures the
// packed gemm microkernel against the unpacked loop nests and la::gemm under
// each kernel backend (Reference vs Native at its detected ISA tier,
// DESIGN.md §14). Results land in bench_kernels.json. `--quick` runs only
// this driver with reduced repetitions and enforces the perf-smoke
// assertion (packed gemm not slower than the loop nests at n=k=256),
// exiting nonzero on violation — the ci.sh perfsmoke stage runs exactly
// that.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "blr.hpp"
#include "linalg/backend.hpp"
#include "linalg/random.hpp"

namespace {

using namespace blr;

la::DMatrix decaying_block(index_t m, index_t n, std::uint64_t seed) {
  Prng rng(seed);
  return la::random_decaying<real_t>(m, n, 0.5, rng);
}

void BM_CompressRRQR(benchmark::State& state) {
  const index_t m = state.range(0);
  const la::DMatrix a = decaying_block(m, m, 42);
  for (auto _ : state) {
    auto lr = lr::compress_rrqr(a.cview(), 1e-8, lr::beneficial_rank_limit(m, m));
    benchmark::DoNotOptimize(lr);
  }
}
BENCHMARK(BM_CompressRRQR)->Arg(64)->Arg(128)->Arg(256)->MinTime(0.05);

void BM_CompressSVD(benchmark::State& state) {
  const index_t m = state.range(0);
  const la::DMatrix a = decaying_block(m, m, 42);
  for (auto _ : state) {
    auto lr = lr::compress_svd(a.cview(), 1e-8, lr::beneficial_rank_limit(m, m));
    benchmark::DoNotOptimize(lr);
  }
}
BENCHMARK(BM_CompressSVD)->Arg(64)->Arg(128)->Arg(256)->MinTime(0.05);

void BM_CompressRandomized(benchmark::State& state) {
  const index_t m = state.range(0);
  const la::DMatrix a = decaying_block(m, m, 42);
  for (auto _ : state) {
    auto lr = lr::compress_randomized(a.cview(), 1e-8, lr::beneficial_rank_limit(m, m));
    benchmark::DoNotOptimize(lr);
  }
}
BENCHMARK(BM_CompressRandomized)->Arg(64)->Arg(128)->Arg(256)->MinTime(0.05);

void BM_LrProduct(benchmark::State& state) {
  const index_t m = state.range(0);
  Prng rng(7);
  const la::DMatrix da = la::random_rank_k<real_t>(m, m, 16, rng);
  const la::DMatrix db = la::random_rank_k<real_t>(m, m, 16, rng);
  const lr::Tile a = lr::compress_to_tile(lr::CompressionKind::Rrqr, da.cview(), 1e-8);
  const lr::Tile b = lr::compress_to_tile(lr::CompressionKind::Rrqr, db.cview(), 1e-8);
  for (auto _ : state) {
    auto p = lr::ab_t_product(a, b, lr::CompressionKind::Rrqr, 1e-8, true);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_LrProduct)->Arg(128)->Arg(256)->Arg(512)->MinTime(0.05);

void BM_DenseGemmReference(benchmark::State& state) {
  const index_t m = state.range(0);
  Prng rng(7);
  la::DMatrix a(m, m);
  la::DMatrix b(m, m);
  la::DMatrix c(m, m);
  la::random_normal(a.view(), rng);
  la::random_normal(b.view(), rng);
  for (auto _ : state) {
    la::gemm(la::Trans::No, la::Trans::Yes, real_t(-1), a.cview(), b.cview(),
             real_t(1), c.view());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_DenseGemmReference)->Arg(128)->Arg(256)->Arg(512)->MinTime(0.05);

void BM_Lr2LrExtendAdd(benchmark::State& state) {
  const index_t m = state.range(0);
  const auto kind = state.range(1) == 0 ? lr::CompressionKind::Rrqr
                                        : lr::CompressionKind::Svd;
  Prng rng(11);
  const la::DMatrix dc = la::random_rank_k<real_t>(m, m, 24, rng);
  const la::DMatrix dp = la::random_rank_k<real_t>(m / 4, m / 4, 8, rng);
  const lr::Tile pb = lr::compress_to_tile(kind, dp.cview(), 1e-8);
  const lr::Tile cb = lr::compress_to_tile(kind, dc.cview(), 1e-8);
  const lr::Tile p =
      lr::Tile::make_lowrank(m / 4, m / 4, lr::LrMatrix(pb.lr()));
  for (auto _ : state) {
    // Re-installing the target's factors is two small copies — negligible
    // next to the recompression being measured.
    lr::Tile c = lr::Tile::make_lowrank(m, m, lr::LrMatrix(cb.lr()));
    lr::lr2lr_add(c, p, m / 8, m / 8, kind, 1e-8);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_Lr2LrExtendAdd)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->MinTime(0.05);

// ---- custom driver: packed gemm, backends ----------------------------

/// Best-of-`trials` wall time of `fn()` run `reps` times per trial.
template <typename Fn>
double best_seconds(int trials, int reps, Fn&& fn) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    Timer timer;
    for (int r = 0; r < reps; ++r) fn();
    best = std::min(best, timer.elapsed() / reps);
  }
  return best;
}

struct PackedRow {
  index_t n = 0;
  double packed_s = 0, unpacked_s = 0;
  double packed_gflops = 0, unpacked_gflops = 0;
  double speedup = 0;
};

PackedRow measure_packed(index_t n, int trials, int reps) {
  Prng rng(7);
  la::DMatrix a(n, n), b(n, n), c(n, n);
  la::random_normal(a.view(), rng);
  la::random_normal(b.view(), rng);
  la::random_normal(c.view(), rng);
  PackedRow row;
  row.n = n;
  row.packed_s = best_seconds(trials, reps, [&] {
    la::gemm(la::Trans::No, la::Trans::Yes, real_t(-1), a.cview(), b.cview(),
             real_t(1), c.view());
  });
  row.unpacked_s = best_seconds(trials, reps, [&] {
    la::gemm_unpacked(la::Trans::No, la::Trans::Yes, real_t(-1), a.cview(),
                      b.cview(), real_t(1), c.view());
  });
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  row.packed_gflops = flops / row.packed_s / 1e9;
  row.unpacked_gflops = flops / row.unpacked_s / 1e9;
  row.speedup = row.unpacked_s / row.packed_s;
  return row;
}

struct BackendRow {
  const char* backend = nullptr;
  std::string isa;  ///< Native ISA tier; empty for Reference
  index_t n = 0;
  double seconds = 0, gflops = 0;
};

/// gemm GF/s under each kernel backend (DESIGN.md §14) — the A/B the
/// runtime-dispatch layer exists for. Restores the entry backend.
std::vector<BackendRow> measure_backends(int trials) {
  const la::Backend entry = la::current_backend();
  std::vector<BackendRow> rows;
  for (const index_t n : {index_t(64), index_t(128), index_t(256)}) {
    const int reps = n <= 64 ? 200 : n <= 128 ? 50 : 10;
    Prng rng(7);
    la::DMatrix a(n, n), b(n, n), c(n, n);
    la::random_normal(a.view(), rng);
    la::random_normal(b.view(), rng);
    la::random_normal(c.view(), rng);
    for (const la::Backend be : {la::Backend::Reference, la::Backend::Native}) {
      la::set_backend(be);
      BackendRow row;
      row.backend = la::backend_name(be);
      row.isa = be == la::Backend::Native ? la::native_isa_name(la::native_isa())
                                          : "";
      row.n = n;
      row.seconds = best_seconds(trials, reps, [&] {
        la::gemm(la::Trans::No, la::Trans::Yes, real_t(-1), a.cview(),
                 b.cview(), real_t(1), c.view());
      });
      row.gflops = 2.0 * static_cast<double>(n) * n * n / row.seconds / 1e9;
      rows.push_back(row);
    }
  }
  la::set_backend(entry);
  return rows;
}

int run_custom_driver(bool quick) {
  const int trials = quick ? 3 : 5;
  int failures = 0;

  std::printf("== packed gemm vs unpacked loop nests (alpha=-1, beta=1) ==\n");
  std::vector<PackedRow> packed;
  for (const index_t n : {index_t(64), index_t(128), index_t(256)}) {
    const int reps = n <= 64 ? 200 : n <= 128 ? 50 : 10;
    packed.push_back(measure_packed(n, trials, reps));
    const PackedRow& p = packed.back();
    std::printf("  n=k=%-4lld packed %7.2f GF/s  unpacked %7.2f GF/s  "
                "speedup %.2fx\n",
                static_cast<long long>(p.n), p.packed_gflops,
                p.unpacked_gflops, p.speedup);
  }
  const PackedRow& p256 = packed.back();
  if (p256.packed_s > 1.10 * p256.unpacked_s) {
    std::printf("FAIL: packed gemm is >10%% slower than the loop nests at "
                "n=k=256 (%.2fx)\n", p256.speedup);
    ++failures;
  }

  std::printf("== backend A/B: la::gemm GF/s per kernel backend ==\n");
  const std::vector<BackendRow> backends = measure_backends(trials);
  for (const BackendRow& r : backends) {
    const std::string isa = r.isa.empty() ? "" : "(" + r.isa + ")";
    std::printf("  n=k=%-4lld %-10s %-9s %7.2f GF/s\n",
                static_cast<long long>(r.n), r.backend, isa.c_str(), r.gflops);
  }

  std::FILE* out = std::fopen("bench_kernels.json", "w");
  if (out) {
    std::fprintf(out, "{\n  \"packed_gemm\": [\n");
    for (std::size_t i = 0; i < packed.size(); ++i) {
      const PackedRow& p = packed[i];
      std::fprintf(out,
                   "    {\"n\": %lld, \"packed_gflops\": %.3f, "
                   "\"unpacked_gflops\": %.3f, \"speedup\": %.3f}%s\n",
                   static_cast<long long>(p.n), p.packed_gflops,
                   p.unpacked_gflops, p.speedup,
                   i + 1 < packed.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"backends\": [\n");
    for (std::size_t i = 0; i < backends.size(); ++i) {
      const BackendRow& r = backends[i];
      std::fprintf(out,
                   "    {\"backend\": \"%s\", \"isa\": \"%s\", \"n\": %lld, "
                   "\"gflops\": %.3f}%s\n",
                   r.backend, r.isa.c_str(), static_cast<long long>(r.n),
                   r.gflops, i + 1 < backends.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote bench_kernels.json\n");
  }
  return failures;
}

} // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int failures = run_custom_driver(quick);
  if (failures > 0) return 1;
  if (quick) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
