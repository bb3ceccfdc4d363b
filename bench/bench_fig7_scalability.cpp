// Figure 7: memory scalability on 3D Laplacians of increasing size for the
// Minimal-Memory/RRQR scenario — the factors' final size and the solver's
// total peak consumption, for the dense baseline and tau in
// {1e-4, 1e-8, 1e-12}. Shape to reproduce: the dense curve grows fastest;
// looser tolerances flatten both the factor size and the peak, which is
// what let the paper run 12M unknowns in 128 GB.
//
// Second section (beyond the paper's figure, labelled 7c): dataflow A/B on
// the largest generator problem of the sweep — factorization wall time of
// the barrier vs task-DAG engines per thread count, with the DAG shape
// counters.

#include <algorithm>
#include <cmath>

#include "bench_common.hpp"

using namespace bench;

namespace {

// Dataflow A/B: barrier vs task-DAG factorization wall time per thread
// count (same strategy), with the DAG shape counters. The DAG's
// tile-granular dependencies overlap panels the barrier serializes, which
// is where the speedup at higher thread counts comes from.
void dataflow_ab(const sparse::CscMatrix& a, index_t n, std::FILE* json,
                 bool* json_first) {
  print_header("Figure 7c — dataflow A/B (JIT/RRQR): barrier vs task DAG");
  std::printf("problem: lap %lld^3, %lld dofs\n\n", static_cast<long long>(n),
              static_cast<long long>(a.rows()));
  std::printf("%8s | %12s | %12s | %8s | %30s\n", "threads", "barrier s",
              "dag s", "speedup", "tasks/edges/critpath/peak");

  std::vector<int> counts = {1, 2, 4, 8};
  const int hw = env_threads();
  if (std::find(counts.begin(), counts.end(), hw) == counts.end() && hw > 1) {
    counts.push_back(hw);
  }
  std::sort(counts.begin(), counts.end());

  for (const int threads : counts) {
    SolverOptions o = paper_options(Strategy::JustInTime,
                                    lr::CompressionKind::Rrqr, 1e-8);
    o.threads = threads;

    o.dataflow = core::Dataflow::Barrier;
    const RunResult barrier = run_solver(a, o);

    o.dataflow = core::Dataflow::Dag;
    Solver keep(o);
    const RunResult dag = run_solver(a, o, &keep);
    const auto& st = keep.stats();

    std::printf("%8d | %12.3f | %12.3f | %7.2fx | %12llu/%llu/%llu/%llu\n",
                threads, barrier.factorization_time, dag.factorization_time,
                barrier.factorization_time / dag.factorization_time,
                static_cast<unsigned long long>(st.dag_tasks),
                static_cast<unsigned long long>(st.dag_edges),
                static_cast<unsigned long long>(st.dag_critical_path),
                static_cast<unsigned long long>(st.dag_ready_peak));
    std::fflush(stdout);

    if (json) {
      char label[32];
      std::snprintf(label, sizeof label, "barrier_t%d", threads);
      if (!*json_first) std::fprintf(json, ",\n");
      *json_first = false;
      json_run(json, label, a.rows(), barrier);
      std::snprintf(label, sizeof label, "dag_t%d", threads);
      std::fprintf(json, ",\n");
      json_run(json, label, a.rows(), dag);
    }
  }
}

} // namespace

int main() {
  const index_t nmax = env_index("BLR_BENCH_N", 52);
  print_header("Figure 7 — memory scalability, 3D Laplacians (MinMem/RRQR)");

  // Machine-readable companion of the table: one JSON object per run,
  // including the per-kernel dispatch counters.
  const char* json_path = std::getenv("BLR_BENCH_JSON");
  std::FILE* json =
      std::fopen(json_path ? json_path : "fig7_memory.json", "w");
  if (json) std::fprintf(json, "{\n  \"figure\": \"fig7_memory\",\n  \"runs\": [\n");
  bool json_first = true;
  const auto emit = [&](const char* label, index_t dofs, const RunResult& r) {
    if (!json) return;
    if (!json_first) std::fprintf(json, ",\n");
    json_first = false;
    json_run(json, label, dofs, r);
  };

  std::printf("%-8s %10s | %21s | %21s | %21s | %21s\n", "size", "dofs",
              "dense fact/peak MB", "t=1e-4 fact/peak", "t=1e-8 fact/peak",
              "t=1e-12 fact/peak");

  index_t nlast = 12;
  for (index_t n = 12; n <= nmax; n += 8) {
    nlast = n;
    const auto a = sparse::laplacian_3d(n, n, n);
    std::printf("%3lld^3   %10lld |", static_cast<long long>(n),
                static_cast<long long>(a.rows()));

    const RunResult dense =
        run_solver(a, paper_options(Strategy::Dense, lr::CompressionKind::Rrqr, 1e-8));
    std::printf(" %9.1f/%9.1f |", mib(dense.factor_entries * sizeof(real_t)),
                mib(dense.total_peak_bytes));
    emit("dense", a.rows(), dense);

    for (const real_t tol : {1e-4, 1e-8, 1e-12}) {
      const RunResult r = run_solver(
          a, paper_options(Strategy::MinimalMemory, lr::CompressionKind::Rrqr, tol));
      std::printf(" %9.1f/%9.1f |", mib(r.factor_entries * sizeof(real_t)),
                  mib(r.total_peak_bytes));
      const std::string label =
          "minmem_tol" + std::to_string(static_cast<int>(-std::log10(tol)));
      emit(label.c_str(), a.rows(), r);
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  const auto a_last = sparse::laplacian_3d(nlast, nlast, nlast);

  // The dataflow A/B rides in the same JSON file, as its own array.
  if (json) std::fprintf(json, "\n  ],\n  \"dataflow_ab\": [\n");
  bool ab_first = true;
  dataflow_ab(a_last, nlast, json, &ab_first);

  if (json) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
  }
  return 0;
}
