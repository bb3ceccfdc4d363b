// End-to-end benchmark of the BLR supernodal solver at paper scale.
//
//   e2ebench --workload <lap64_jit|lap64_dense|cd40_minmem_steps>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Every timing comes from a Span around one public call (Solver, Session,
// or the sparse/ordering/symbolic functions analyze() is made of). With
// --trace 0 the run prints the end-to-end metrics; with --trace 1 it also
// records the spans, writes them as Chrome trace-event JSON to --trace-out
// and prints the per-layer metrics instead. Human-readable lines come
// first; the last stdout line is the JSON result. The exit code is 1 when
// any call threw or any solution failed its accuracy check.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_logic.hpp"
#include "blr.hpp"

namespace {

using namespace blr;
using e2e::Ledger;
using e2e::Metric;
using e2e::Span;
using e2e::Tracer;

constexpr int kThreads = 4;             // factorization and solve threads
constexpr int kClients = 4;             // closed-loop Session clients
constexpr int kRequestsPerClient = 8;   // single-RHS requests per client and step
constexpr int kBlockCols = 32;          // columns of the blocked solve per step
constexpr int kMinPipelines = 2;        // lap64: cold pipelines per run, at least
constexpr real_t kPerturbation = 0.01;  // relative value change per time step
constexpr std::size_t kMinRequests = 100;  // so that p90 has ten samples beyond

struct Workload {
  const char* name;
  Strategy strategy;
  double tau;
  bool steps;  // Session time stepping (else one cold pipeline per repetition)
};

// Why each workload is here is recorded in BENCHMARK.json and layers.json.
const Workload kWorkloads[] = {
    {"lap64_jit", Strategy::JustInTime, 1e-4, false},
    {"lap64_dense", Strategy::Dense, 1e-4, false},
    {"cd40_minmem_steps", Strategy::MinimalMemory, 1e-8, true},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 36;
  bool trace = false;
  std::string trace_out;
};

// ------------------------------------------------------------------ inputs

/// Seed of one input stream: (run seed, stream tag, indices) → Prng seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t i = 0, std::uint64_t j = 0) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t v : {seed, tag, i, j}) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0x100000001b3ull;
  }
  return h;
}

void fill_uniform(real_t* v, index_t n, std::uint64_t seed) {
  Prng rng(seed);
  for (index_t i = 0; i < n; ++i) v[i] = rng.uniform(-1.0, 1.0);
}

/// The same pattern with every value scaled by 1 + δ, δ uniform in ±1%.
sparse::CscMatrix perturbed(const sparse::CscMatrix& base, std::uint64_t seed) {
  sparse::CscMatrix a = base;
  Prng rng(seed);
  for (real_t& v : a.values()) v *= 1.0 + kPerturbation * rng.uniform(-1.0, 1.0);
  return a;
}

SolverOptions options_for(const Workload& w) {
  SolverOptions o;
  o.strategy = w.strategy;
  o.kind = lr::CompressionKind::Rrqr;
  o.tolerance = w.tau;
  o.threads = kThreads;
  return o;
}

/// Whether to start another repetition after `elapsed` of a `budget`: yes
/// when, at the median repetition time so far, it would end less than half
/// a repetition past the budget.
bool time_for_another(double elapsed, const std::vector<double>& reps, double budget) {
  return elapsed + 0.5 * e2e::median(reps) <= budget;
}

/// Run `f`; a throw is recorded as a failed operation and returns false.
template <class F>
bool guarded(Ledger& led, const std::string& what, F&& f) {
  try {
    f();
    return true;
  } catch (const std::exception& e) {
    led.fail(what + ": " + e.what());
    return false;
  }
}

// ------------------------------------------------------------ layer record

/// Counters of one numeric pass, read from the public stats surfaces.
struct PassRecord {
  SolverStats st;
  std::vector<ThreadPool::WorkerStats> workers;
  double wall = 0;  // wall time of the factorize / refactorize call
  index_t supernodes = 0;
};

PassRecord record_pass(const Solver& s, double wall) {
  return {s.stats(), s.worker_stats(), wall, s.ordering().num_supernodes()};
}

/// Solve-phase totals over a set of solves.
struct SolveAgg {
  double s = 0;
  double tasks = 0, parallel = 0, split = 0, sequential = 0, plan_reuses = 0;

  /// A Solver::solve call, as its SolvePhaseStats delta.
  void add_direct(const core::SolvePhaseStats& before,
                  const core::SolvePhaseStats& after, double seconds) {
    s += seconds;
    tasks += static_cast<double>(after.tasks_executed - before.tasks_executed);
    parallel += static_cast<double>(after.parallel_solves - before.parallel_solves);
    split += static_cast<double>(after.split_solves - before.split_solves);
    sequential +=
        static_cast<double>(after.sequential_solves - before.sequential_solves);
    plan_reuses += static_cast<double>(after.plan_reuses - before.plan_reuses);
  }
  /// One Session request. Every request of a coalesced batch of m reports
  /// the same blocked solve, so each adds 1/m of it.
  void add_request(const SolveStats& r) {
    const double w = 1.0 / static_cast<double>(std::max<index_t>(1, r.batch_size));
    s += w * r.solve_seconds;
    tasks += w * static_cast<double>(r.solve_tasks);
    parallel += r.parallel && !r.column_split ? w : 0.0;
    split += r.column_split ? w : 0.0;
    sequential += !r.parallel && !r.column_split ? w : 0.0;
    plan_reuses += r.plan_reused ? w : 0.0;
  }
};

/// Everything the per-layer metrics are derived from.
struct Layers {
  double graph_s = 0, nd_s = 0, amalgamate_s = 0, split_s = 0, build_s = 0;
  PassRecord pass;
  SolveAgg solve;
  double refine_s = 0, refine_iters = 0;
  std::vector<SolveStats> requests;
  double refactorize_s = 0, solve_p50_ms = 0, solve_p90_ms = 0;
  double solve_rhs_per_s = 0, block_rhs_per_s = 0;
  double overhead_s = 0;
  double reps = 0, samples = 0;
  double direct_berr = 0, refined_berr = 0;
};

/// Replay SymbolicPlan::build's sequence of public calls under the solver's
/// own options, one span each (the solver times analyze() only as a whole).
void replay_analysis(const sparse::CscMatrix& a, const SolverOptions& o,
                     Tracer& t, Layers& L) {
  Span root(t, "analyze.replay");
  sparse::Graph g;
  {
    Span s(t, "sparse.graph", root.id());
    g = sparse::Graph::from_matrix(a);
    L.graph_s = s.stop();
  }
  ordering::Ordering ord;
  {
    Span s(t, "ordering.nd", root.id());
    ord = ordering::nested_dissection(g, o.nd);
    L.nd_s = s.stop();
  }
  std::vector<index_t> ranges = ord.ranges;
  if (o.amalgamate) {
    Span s(t, "symbolic.amalgamate", root.id());
    ranges = symbolic::amalgamate(a, ord, std::move(ranges), o.amalgamation);
    L.amalgamate_s = s.stop();
  }
  {
    Span s(t, "symbolic.split", root.id());
    ranges = symbolic::split_ranges(ranges, o.split);
    L.split_s = s.stop();
  }
  Span s(t, "symbolic.build", root.id());
  const symbolic::SymbolicFactor sf = symbolic::SymbolicFactor::build(a, ord, ranges);
  L.build_s = s.stop();
}

std::vector<Metric> layer_metrics(const Layers& L, const std::vector<e2e::SpanRecord>& spans) {
  const SolverStats& st = L.pass.st;
  std::vector<Metric> m = {
      {"sparse.graph_s", L.graph_s, "s"},
      {"ordering.nd_s", L.nd_s, "s"},
      {"symbolic.amalgamate_s", L.amalgamate_s, "s"},
      {"symbolic.split_s", L.split_s, "s"},
      {"symbolic.build_s", L.build_s, "s"},
      {"ordering.supernodes", static_cast<double>(L.pass.supernodes), "count"},
      {"symbolic.cblks", static_cast<double>(st.num_cblks), "count"},
      {"symbolic.bloks", static_cast<double>(st.num_bloks), "count"},
      {"symbolic.factor_entries", static_cast<double>(st.factor_entries_dense), "count"},
  };

  struct K { double calls = 0, bytes = 0, s = 0; };
  std::map<std::string, K> ks;
  double factor_kernel_s = 0;
  for (const core::DispatchCount& d : st.dispatch) {
    K& k = ks[e2e::kernel_class(d.kernel)];
    k.calls += static_cast<double>(d.calls);
    k.bytes += static_cast<double>(d.bytes);
    k.s += d.seconds;
    if (d.kernel.rfind("solve_", 0) != 0) factor_kernel_s += d.seconds;
  }
  for (const std::string& c : e2e::kernel_classes()) {
    const K k = ks.count(c) ? ks[c] : K{};
    const std::string p = "kernel." + c;
    m.push_back({p + ".calls", k.calls, "count"});
    m.push_back({p + ".gb", k.bytes / 1e9, "GB"});
    m.push_back({p + ".s", k.s, "s"});
    m.push_back({p + ".gb_per_s", k.s > 0 ? k.bytes / 1e9 / k.s : 0.0, "GB/s"});
    m.push_back({p + ".bytes_per_call", k.calls > 0 ? k.bytes / k.calls : 0.0, "B"});
  }

  const bool compressing = st.num_lowrank_blocks > 0 || ks.count("compress");
  const double threads = std::max(1, st.scheduler_workers);
  const double attempts = static_cast<double>(st.warm.attempts);
  const double pool_acq = static_cast<double>(st.buffer_hits + st.buffer_misses);
  std::vector<double> waits;
  double batches = 0, batch_solve_s = 0;
  for (const SolveStats& r : L.requests) {
    waits.push_back(r.wait_seconds * 1e3);
    const double w = 1.0 / static_cast<double>(std::max<index_t>(1, r.batch_size));
    batches += w;
    batch_solve_s += w * r.solve_seconds;
  }
  const auto self = [&](const char* name) { return e2e::median_self_time(spans, name); };
  const std::vector<Metric> rest = {
      {"lowrank.lr_blocks", static_cast<double>(st.num_lowrank_blocks), "count"},
      {"lowrank.avg_rank", st.average_rank, "count"},
      {"lowrank.compression_ratio", st.compression_ratio(), "ratio"},
      {"lowrank.dense_block_fraction", compressing ? st.dense_block_fraction : 0.0, "ratio"},
      {"sched.tasks", static_cast<double>(st.scheduler_tasks), "count"},
      {"sched.steals", static_cast<double>(st.scheduler_steals), "count"},
      {"sched.failed_steals", static_cast<double>(st.scheduler_failed_steals), "count"},
      {"sched.idle_sleeps", static_cast<double>(st.scheduler_idle_sleeps), "count"},
      {"sched.kernel_busy_frac",
       L.pass.wall > 0 ? factor_kernel_s / (threads * L.pass.wall) : 0.0, "ratio"},
      {"solve.s", L.solve.s, "s"},
      {"solve.trsm_s", st.solve_phase.trsm_seconds, "s"},
      {"solve.gemm_s", st.solve_phase.gemm_seconds, "s"},
      {"solve.tasks", L.solve.tasks, "count"},
      {"solve.parallel", L.solve.parallel, "count"},
      {"solve.split", L.solve.split, "count"},
      {"solve.sequential", L.solve.sequential, "count"},
      {"solve.plan_reuses", L.solve.plan_reuses, "count"},
      {"refine.s", L.refine_s, "s"},
      {"refine.iters", L.refine_iters, "count"},
      {"session.wait_ms_p50", e2e::percentile(waits, 50), "ms"},
      {"session.wait_ms_p90", e2e::percentile(waits, 90), "ms"},
      {"session.batch_mean", batches > 0 ? static_cast<double>(L.requests.size()) / batches : 0.0, "count"},
      {"session.blocked_solve_ms", batches > 0 ? batch_solve_s / batches * 1e3 : 0.0, "ms"},
      {"session.refactorize_s", L.refactorize_s, "s"},
      {"session.solve_p50_ms", L.solve_p50_ms, "ms"},
      {"session.solve_p90_ms", L.solve_p90_ms, "ms"},
      {"session.solve_rhs_per_s", L.solve_rhs_per_s, "1/s"},
      {"session.block_rhs_per_s", L.block_rhs_per_s, "1/s"},
      {"warm.hit_ratio", attempts > 0 ? static_cast<double>(st.warm.hits) / attempts : 0.0, "ratio"},
      {"warm.grows", static_cast<double>(st.warm.grows), "count"},
      {"warm.dense_skips", static_cast<double>(st.warm.dense_skips), "count"},
      {"pool.buffer_hit_ratio", pool_acq > 0 ? static_cast<double>(st.buffer_hits) / pool_acq : 0.0, "ratio"},
      {"mem.factors_peak_mb", static_cast<double>(st.factors_peak_bytes) / 1e6, "MB"},
      {"mem.total_peak_mb", static_cast<double>(st.total_peak_bytes) / 1e6, "MB"},
      {"self.analyze_s", self("analyze"), "s"},
      {"self.factorize_s", self("factorize"), "s"},
      {"self.refactorize_s", self("refactorize"), "s"},
      {"self.solve_s", self("solve"), "s"},
      {"self.refine_s", self("refine"), "s"},
      {"self.session_solve_s", self("session.solve"), "s"},
      {"self.block_solve_s", self("block_solve"), "s"},
      {"trace.overhead_s", L.overhead_s, "s"},
      {"samples.reps", L.reps, "count"},
      {"samples.solves", L.samples, "count"},
      {"accuracy.direct_berr", L.direct_berr, "ratio"},
      {"accuracy.refined_berr", L.refined_berr, "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

void print_workers(const PassRecord& p) {
  for (std::size_t w = 0; w < p.workers.size(); ++w) {
    const ThreadPool::WorkerStats& ws = p.workers[w];
    std::printf("# worker %zu: %llu tasks, %llu steals, %llu failed steals, %llu idle sleeps\n",
                w, static_cast<unsigned long long>(ws.executed),
                static_cast<unsigned long long>(ws.steals),
                static_cast<unsigned long long>(ws.failed_steals),
                static_cast<unsigned long long>(ws.idle_sleeps));
  }
}

// -------------------------------------------------------------- workloads

/// The outcome of one workload run: end-to-end metrics for the JSON line,
/// and extra human-readable figures.
struct Result {
  std::vector<Metric> e2e;
  std::vector<Metric> info;
  std::vector<std::pair<std::string, std::vector<double>>> samples;  // behind the medians
  Layers layers;
};

/// lap64_jit / lap64_dense: repeated cold pipelines analyze → factorize →
/// single-RHS solve → refine (CG), each with a fresh Solver.
Result run_pipelines(const Workload& w, const Args& args, Ledger& led,
                     Tracer& tracer) {
  const sparse::CscMatrix a = sparse::laplacian_3d(64, 64, 64);
  const index_t n = a.rows();
  const SolverOptions o = options_for(w);
  const bool dense = w.strategy == Strategy::Dense;
  const double direct_bound = e2e::direct_berr_bound(dense, w.tau);
  const RefinementOptions ropts;
  Tracer off(false);
  Result res;
  Layers& L = res.layers;

  std::vector<double> setup, fact, solution, solve_ms, traced_solution, untraced_solution;
  std::vector<double> peak_mb;
  double factor_mb = 0;
  const double t0 = tracer.now();
  std::vector<double> rep_wall;
  for (int rep = 0;; ++rep) {
    // A traced run traces every second pipeline, the others are the
    // reference for the tracing overhead.
    const bool traced = args.trace && rep % 2 == 1;
    Tracer& t = traced ? tracer : off;
    if (args.trace && rep == 1) replay_analysis(a, o, tracer, L);
    const double rs = tracer.now();

    std::vector<real_t> b(static_cast<std::size_t>(n)), x(b.size());
    fill_uniform(b.data(), n, stream_seed(args.seed, 1, static_cast<std::uint64_t>(rep)));
    Solver s(o);
    Span pipe(t, "pipeline");
    double ta = 0, tf = 0, ts = 0, tr = 0;
    bool ok = guarded(led, "analyze", [&] {
      Span sp(t, "analyze", pipe.id());
      s.analyze(a);
      ta = sp.stop();
    });
    if (ok) led.ok();
    ok = ok && guarded(led, "factorize", [&] {
      Span sp(t, "factorize", pipe.id());
      s.factorize(a);
      tf = sp.stop();
    });
    if (ok) led.ok();
    const core::SolvePhaseStats before = ok ? s.stats().solve_phase : core::SolvePhaseStats{};
    ok = ok && guarded(led, "solve", [&] {
      Span sp(t, "solve", pipe.id());
      s.solve(b.data(), x.data());
      ts = sp.stop();
    });
    if (ok) {
      const double berr = sparse::backward_error(a, x.data(), b.data());
      L.direct_berr = std::max(L.direct_berr, berr);
      ok = led.check("direct solve", berr, direct_bound);
    }
    RefinementResult rr;
    ok = ok && guarded(led, "refine", [&] {
      Span sp(t, "refine", pipe.id());
      rr = s.refine(a, b.data(), x.data(), ropts);
      tr = sp.stop();
    });
    if (ok) {
      const double berr = sparse::backward_error(a, x.data(), b.data());
      L.refined_berr = std::max(L.refined_berr, berr);
      ok = led.check("refined solution", berr, ropts.target);
    }
    pipe.stop();
    if (!ok) break;

    const double sol = ta + tf + ts + tr;
    setup.push_back(ta);
    fact.push_back(tf);
    solution.push_back(sol);
    solve_ms.push_back(ts * 1e3);
    (traced ? traced_solution : untraced_solution).push_back(sol);
    peak_mb.push_back(static_cast<double>(s.stats().total_peak_bytes) / 1e6);
    factor_mb = static_cast<double>(s.stats().factor_bytes_final) / 1e6;
    if (!args.trace || traced) {
      L.pass = record_pass(s, tf);
      L.solve = SolveAgg{};
      L.solve.add_direct(before, s.stats().solve_phase, ts);
      L.refine_s = tr;
      L.refine_iters = static_cast<double>(rr.iterations);
    }
    rep_wall.push_back(tracer.now() - rs);
    const bool enough = rep + 1 >= kMinPipelines && (!args.trace || rep >= 1);
    if (enough && !time_for_another(tracer.now() - t0, rep_wall, args.seconds)) break;
  }

  L.reps = static_cast<double>(solution.size());
  L.samples = L.reps;
  if (args.trace && !traced_solution.empty() && !untraced_solution.empty()) {
    L.overhead_s = e2e::median(traced_solution) - e2e::median(untraced_solution);
  }
  res.e2e = {
      {"setup_s", e2e::median(setup), "s"},
      {"factorize_s", e2e::median(fact), "s"},
      {"solution_s", e2e::median(solution), "s"},
      {"peak_mb", e2e::median(peak_mb), "MB"},
      {"factor_mb", factor_mb, "MB"},
  };
  res.info = {
      {"solve_ms", e2e::median(solve_ms), "ms"},
      {"refine_iters", L.refine_iters, "count"},
      {"refined_berr", L.refined_berr, "ratio"},
  };
  res.samples = {{"setup_s", setup}, {"factorize_s", fact}, {"solution_s", solution},
                 {"peak_mb", peak_mb}};
  return res;
}

/// cd40_minmem_steps: one Session, analyzed once, runs time steps of warm
/// refactorize → closed-loop burst of single-RHS requests from kClients
/// threads → one kBlockCols-column blocked solve. Cold analyze and
/// factorize samples on a standalone Solver are taken alongside.
Result run_steps(const Workload& w, const Args& args, Ledger& led, Tracer& tracer) {
  const sparse::CscMatrix a0 = sparse::convection_diffusion_3d(40, 40, 40, 0.5);
  const index_t n = a0.rows();
  const std::size_t un = static_cast<std::size_t>(n);
  const SolverOptions o = options_for(w);
  const double bound = e2e::direct_berr_bound(false, w.tau);
  Tracer off(false);
  Result res;
  Layers& L = res.layers;
  const double t0 = tracer.now();

  const sparse::CscMatrix a_cold = perturbed(a0, stream_seed(args.seed, 2, 0));
  std::vector<real_t> b(un), x(un);
  fill_uniform(b.data(), n, stream_seed(args.seed, 3, 0));
  std::vector<double> setup, fact;
  double peak_mb = 0, run_peak_mb = 0, first_refactorize = 0, factor_mb = 0;
  const auto check = [&](const char* what) {
    const double berr = sparse::backward_error(a_cold, x.data(), b.data());
    L.direct_berr = std::max(L.direct_berr, berr);
    return led.check(what, berr, bound);
  };
  // One set-up and cold-factorize sample: a fresh Solver analyzes and
  // factorizes the step-0 values. The first is taken before the Session
  // exists and gives the memory figures (the memory tracker is
  // process-wide); one more is taken per time step, so the samples spread
  // over the whole run.
  const auto cold_sample = [&](Tracer& t, bool first) {
    Solver s(o);
    {
      Span sp(t, "analyze");
      if (!guarded(led, "analyze", [&] { s.analyze(a0); })) return false;
      led.ok();
      setup.push_back(sp.stop());
    }
    {
      Span sp(t, "factorize");
      if (!guarded(led, "factorize", [&] { s.factorize(a_cold); })) return false;
      led.ok();
      fact.push_back(sp.stop());
    }
    if (!first) return true;
    peak_mb = static_cast<double>(s.stats().total_peak_bytes) / 1e6;
    factor_mb = static_cast<double>(s.stats().factor_bytes_final) / 1e6;
    if (!guarded(led, "solve", [&] {
          Span sp(t, "solve");
          s.solve(b.data(), x.data());
        })) {
      return false;
    }
    return check("solve after a cold factorize");
  };
  if (!cold_sample(tracer, true)) return res;

  Session ses(o);
  {
    Span sp(tracer, "analyze");
    if (!guarded(led, "session analyze", [&] { ses.analyze(a0); })) return res;
    led.ok();
    setup.push_back(sp.stop());
  }
  if (args.trace) replay_analysis(a0, o, tracer, L);
  {
    Span sp(tracer, "refactorize");
    if (!guarded(led, "first refactorize", [&] { ses.refactorize(a_cold); })) return res;
    led.ok();
    first_refactorize = sp.stop();
  }
  run_peak_mb = std::max(peak_mb, static_cast<double>(ses.stats().total_peak_bytes) / 1e6);
  if (!guarded(led, "session solve", [&] {
        Span sp(tracer, "session.solve", -1, 0);
        ses.solve(b, x);
      })) {
    return res;
  }
  if (!check("session solve after the first refactorize")) return res;

  const int per_step = kClients * kRequestsPerClient;
  const int min_steps = static_cast<int>((kMinRequests + per_step - 1) / per_step);
  std::vector<double> refac, latency_ms, burst_s, block_s, step_s, traced_step, untraced_step;
  std::vector<double> step_wall;
  long next_request = 1;
  for (int step = 1;; ++step) {
    // A traced run traces every second step, the others are the reference
    // for the tracing overhead.
    const bool traced = args.trace && step % 2 == 0;
    Tracer& t = traced ? tracer : off;
    const double ws = tracer.now();
    if (!cold_sample(t, false)) break;
    const sparse::CscMatrix a =
        perturbed(a0, stream_seed(args.seed, 2, static_cast<std::uint64_t>(step)));
    // Request streams: client c's j-th right-hand side of this step.
    std::vector<std::vector<real_t>> bs(static_cast<std::size_t>(per_step), std::vector<real_t>(un));
    std::vector<std::vector<real_t>> xs(bs.size(), std::vector<real_t>(un));
    for (int r = 0; r < per_step; ++r) {
      fill_uniform(bs[static_cast<std::size_t>(r)].data(), n,
                   stream_seed(args.seed, 4, static_cast<std::uint64_t>(step),
                               static_cast<std::uint64_t>(r)));
    }
    la::DMatrix bb(n, kBlockCols), xb(n, kBlockCols);
    fill_uniform(bb.data(), n * kBlockCols, stream_seed(args.seed, 5, static_cast<std::uint64_t>(step)));

    Span stepspan(t, "step");
    double tre = 0;
    {
      Span sp(t, "refactorize", stepspan.id());
      if (!guarded(led, "refactorize", [&] { ses.refactorize(a); })) break;
      led.ok();
      tre = sp.stop();
    }
    run_peak_mb = std::max(run_peak_mb, static_cast<double>(ses.stats().total_peak_bytes) / 1e6);
    const core::SolvePhaseStats before = ses.stats().solve_phase;

    std::vector<SolveStats> st(static_cast<std::size_t>(per_step));
    std::vector<double> lat(st.size(), 0.0);
    std::vector<std::string> err(st.size());
    Span burst(t, "burst", stepspan.id());
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (int j = 0; j < kRequestsPerClient; ++j) {
            const std::size_t r = static_cast<std::size_t>(c * kRequestsPerClient + j);
            try {
              Span sp(t, "session.solve", burst.id(), next_request + static_cast<long>(r));
              st[r] = ses.solve(bs[r], xs[r]);
              lat[r] = sp.stop();
            } catch (const std::exception& e) {
              err[r] = e.what();
            }
          }
        });
      }
      for (std::thread& th : clients) th.join();
    }
    const double tb = burst.stop();
    next_request += per_step;
    double tk = 0;
    bool block_ok = guarded(led, "blocked solve", [&] {
      Span sp(t, "block_solve", stepspan.id());
      ses.solver().solve(bb.cview(), xb.view());
      tk = sp.stop();
    });
    const double tstep = stepspan.stop();

    bool ok = true;
    for (std::size_t r = 0; r < st.size(); ++r) {
      if (!err[r].empty()) {
        led.fail("session solve: " + err[r]);
        ok = false;
        continue;
      }
      const double berr = sparse::backward_error(a, xs[r].data(), bs[r].data());
      L.direct_berr = std::max(L.direct_berr, berr);
      ok = led.check("session solve", berr, bound) && ok;
      latency_ms.push_back(lat[r] * 1e3);
      L.requests.push_back(st[r]);
    }
    for (index_t j = 0; block_ok && j < kBlockCols; ++j) {
      const double berr = sparse::backward_error(a, xb.view().col(j), bb.view().col(j));
      L.direct_berr = std::max(L.direct_berr, berr);
      block_ok = led.check("blocked solve column", berr, bound);
    }
    if (!ok || !block_ok) break;

    refac.push_back(tre);
    burst_s.push_back(tb);
    block_s.push_back(tk);
    step_s.push_back(tstep);
    (traced ? traced_step : untraced_step).push_back(tstep);
    if (step == 1) {
      // Per-pass counters of the first warm pass; the dispatch snapshot
      // taken by the blocked solve also holds this step's solve kernels.
      L.pass = record_pass(ses.solver(), tre);
      for (const SolveStats& s : st) L.solve.add_request(s);
      L.solve.add_direct(before, ses.stats().solve_phase, tk);
    }
    step_wall.push_back(tracer.now() - ws);
    const bool enough = step >= min_steps && (!args.trace || step >= 2);
    if (enough && !time_for_another(tracer.now() - t0, step_wall, args.seconds)) break;
  }

  double burst_total = 0;
  for (double b : burst_s) burst_total += b;
  L.reps = static_cast<double>(step_s.size());
  L.samples = static_cast<double>(latency_ms.size());
  L.refactorize_s = e2e::median(refac);
  L.solve_p50_ms = e2e::percentile(latency_ms, 50);
  L.solve_p90_ms = e2e::percentile(latency_ms, 90);
  L.solve_rhs_per_s = burst_total > 0 ? static_cast<double>(latency_ms.size()) / burst_total : 0.0;
  L.block_rhs_per_s = block_s.empty() ? 0.0 : kBlockCols / e2e::median(block_s);
  if (args.trace && !traced_step.empty() && !untraced_step.empty()) {
    L.overhead_s = e2e::median(traced_step) - e2e::median(untraced_step);
  }
  res.e2e = {
      {"setup_s", e2e::median(setup), "s"},
      {"factorize_s", e2e::median(fact), "s"},
      {"solution_s", e2e::median(step_s), "s"},
      {"peak_mb", peak_mb, "MB"},
      {"factor_mb", factor_mb, "MB"},
  };
  res.info = {
      {"first_refactorize_s", first_refactorize, "s"},
      {"refactorize_s", L.refactorize_s, "s"},
      {"solve_p50_ms", L.solve_p50_ms, "ms"},
      {"solve_p90_ms", L.solve_p90_ms, "ms"},
      {"solve_rhs_per_s", L.solve_rhs_per_s, "1/s"},
      {"block_rhs_per_s", L.block_rhs_per_s, "1/s"},
      {"run_peak_mb", run_peak_mb, "MB"},
  };
  res.samples = {{"setup_s", setup}, {"factorize_s", fact}, {"solution_s", step_s}};
  return res;
}

// ------------------------------------------------------------------- main

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

void print_metric(const Metric& m, const char* note = "") {
  std::printf("%-34s %14.6g %-6s%s\n", m.name.c_str(), m.value, m.unit.c_str(), note);
}

} // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (args.workload == k.name) w = &k;
  }
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Ledger led;
  Tracer tracer(args.trace);
  Result res;
  try {
    res = w->steps ? run_steps(*w, args, led, tracer)
                   : run_pipelines(*w, args, led, tracer);
  } catch (const std::exception& e) {
    led.fail(std::string("workload: ") + e.what());
  }
  const Layers& L = res.layers;

  std::printf("# workload %s, seed %llu, %s, %d threads\n", w->name,
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced", kThreads);
  if (w->steps) {
    std::printf("# %g time steps; closed loop of %d clients x %d requests per step; "
                "%g single-RHS requests (highest reportable percentile p%g)\n",
                L.reps, kClients, kRequestsPerClient, L.samples,
                e2e::reportable_percentile(static_cast<std::size_t>(L.samples)));
    std::printf("# solution_s is the median time step: warm refactorize + burst + "
                "%d-column blocked solve\n", kBlockCols);
  } else {
    std::printf("# %g cold pipelines (median reported)\n", L.reps);
  }
  for (const Metric& m : res.e2e) print_metric(m);
  for (const Metric& m : res.info) print_metric(m);
  for (const auto& [name, v] : res.samples) {
    std::printf("# %s samples:", name.c_str());
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  }
  print_metric({"direct_berr", L.direct_berr, "ratio"});
  print_metric({"error_rate", led.error_rate(), "ratio"},
               led.failed() ? "  FAILED" : "");
  std::printf("# %ld operations attempted, %ld failed\n", led.attempted(), led.failed());

  std::vector<Metric> out = res.e2e;
  if (args.trace) {
    const std::vector<e2e::SpanRecord> spans = tracer.spans();
    out = layer_metrics(L, spans);
    for (const Metric& m : out) {
      if (!e2e::valid_metric_name(m.name)) led.fail("metric name '" + m.name + "'");
    }
    print_workers(L.pass);
    for (const Metric& m : out) print_metric(m);
    if (!args.trace_out.empty()) {
      std::ofstream f(args.trace_out);
      f << e2e::chrome_trace_json(spans);
      if (!f) {
        led.fail("writing the trace to " + args.trace_out);
      } else {
        std::printf("# %zu spans written to %s\n", spans.size(), args.trace_out.c_str());
      }
    }
  }
  std::printf("%s\n", e2e::result_json(led, out).c_str());
  std::fflush(stdout);
  return led.failed() == 0 ? 0 : 1;
}
