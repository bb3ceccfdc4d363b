#include "core/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/kernel_stats.hpp"
#include "core/kernels_dispatch.hpp"

namespace blr::core {

namespace {

template <typename T>
bool all_finite(const la::Matrix<T>& m) {
  const T* p = m.data();
  const std::size_t n = static_cast<std::size_t>(m.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(static_cast<double>(p[i]))) return false;
  }
  return true;
}

bool all_finite(const lr::Tile& t) {
  if (t.rank() == 0) return true;
  if (t.is_lowrank()) {
    if (t.precision() == lr::Precision::Fp32)
      return all_finite(t.lr().u32) && all_finite(t.lr().v32);
    return all_finite(t.lr().u) && all_finite(t.lr().v);
  }
  return all_finite(t.dense());
}

/// Index of the blok (within cblk c) whose row interval contains `row`.
index_t find_blok_row(const symbolic::Cblk& c, index_t row) {
  index_t lo = 0;
  index_t hi = static_cast<index_t>(c.bloks.size()) - 1;
  while (lo <= hi) {
    const index_t mid = (lo + hi) / 2;
    const symbolic::Blok& b = c.bloks[static_cast<std::size_t>(mid)];
    if (row < b.frow) hi = mid - 1;
    else if (row >= b.lrow) lo = mid + 1;
    else return mid;
  }
  throw Error("assembly: row outside symbolic structure");
}

} // namespace

NumericFactor::NumericFactor(const sparse::CscMatrix& a,
                             const ordering::Ordering& ord,
                             const symbolic::SymbolicFactor& sf,
                             const SolverOptions& opts, bool llt,
                             ResourceGovernor* governor, Reuse reuse)
    : ord_(ord), sf_(sf), opts_(opts), llt_(llt), reuse_(reuse),
      data_(static_cast<std::size_t>(sf.num_cblks())),
      locks_(static_cast<std::size_t>(sf.num_cblks())),
      deps_(static_cast<std::size_t>(sf.num_cblks())), gov_(governor) {
  if (opts_.check_finite) {
    // Guard the assembly input: a single NaN/Inf would otherwise propagate
    // silently through the factorization into a garbage answer.
    const auto& vals = a.values();
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (!std::isfinite(static_cast<double>(vals[i]))) {
        std::ostringstream os;
        os << "input matrix value at nnz slot " << i << " is "
           << vals[i];
        fail(make_report(FailureKind::NonFiniteInput, -1, -1, std::nan(""),
                         os.str()));
      }
    }
  }
  if (!llt_ && opts_.pivot_threshold > 0) {
    // Absolute static-pivot cutoff relative to the matrix magnitude.
    real_t amax = 0;
    for (const real_t v : a.values()) amax = std::max(amax, std::abs(v));
    pivot_cutoff_ = opts_.pivot_threshold * amax;
  }
  policy_ = make_update_policy(opts_);
  pctx_.kind = opts_.kind;
  pctx_.tolerance = opts_.tolerance;
  pctx_.adaptive_rank_fraction = opts_.adaptive_rank_fraction;
  pctx_.precision = opts_.precision;
  pctx_.mixed_rank_threshold = opts_.mixed_rank_threshold;
  pctx_.compression_site = [this](index_t k) { maybe_fail_compression(k); };
  // Warm-start wiring (re-factorization only; reuse_ is empty on cold runs).
  // A prebuilt DAG skeleton for the other factorization flavor is dropped
  // here rather than trusted — the recovery ladder can flip LLᵗ → LU
  // mid-call, and the address spaces differ.
  pctx_.warm = opts_.warm_start ? reuse_.ranks : nullptr;
  pctx_.warm_slack = opts_.warm_rank_slack;
  pctx_.warm_dense_skip = opts_.warm_dense_skip;
  pctx_.warm_counters = &warm_counters_;
  if (reuse_.dag != nullptr && reuse_.dag->llt() != llt_) reuse_.dag = nullptr;
  if (!opts_.reuse_buffers) reuse_.buffers = nullptr;
  iperm_.resize(ord_.perm.size());
  for (std::size_t i = 0; i < ord_.perm.size(); ++i)
    iperm_[static_cast<std::size_t>(ord_.perm[i])] = static_cast<index_t>(i);
  ap_ = a.permuted(ord_.perm);
  if (!llt_) apt_ = ap_.transposed();
  input_track_ = TrackedAlloc(
      MemCategory::Workspace,
      (static_cast<std::size_t>(ap_.nnz()) + static_cast<std::size_t>(apt_.nnz())) *
          (sizeof(real_t) + sizeof(index_t)));
  if (opts_.scheduling == Scheduling::RightLooking &&
      opts_.dataflow == Dataflow::Barrier) {
    // The dataflow schedule assembles lazily (one Assemble task per
    // supernode inside the DAG), so it keeps the permuted input alive until
    // factorize() finishes instead of assembling everything here.
    assemble_all();
    ap_ = sparse::CscMatrix();
    apt_ = sparse::CscMatrix();
    input_track_ = TrackedAlloc();
  }
}

bool NumericFactor::compressible(index_t k, const symbolic::Blok& b) const {
  return sf_.cblk(k).width() >= opts_.compress_min_width &&
         b.height() >= opts_.compress_min_height;
}

FailureReport NumericFactor::make_report(FailureKind kind, index_t supernode,
                                         index_t local_pivot, double pivot_mag,
                                         std::string detail) const {
  FailureReport r;
  r.kind = kind;
  r.supernode = supernode;
  r.local_pivot = local_pivot;
  r.pivot_magnitude = pivot_mag;
  r.strategy = strategy_name(opts_.strategy);
  r.compression = kind_name(opts_.kind);
  r.factorization = llt_ ? "LLt" : "LU";
  r.tolerance = static_cast<double>(opts_.tolerance);
  r.elapsed_seconds = trace_clock_.elapsed();
  r.detail = std::move(detail);
  return r;
}

void NumericFactor::fail(FailureReport report) const {
  std::string what = report.to_string();
  throw NumericalError(std::move(what), std::move(report));
}

void NumericFactor::record_failure(FailureReport report) {
  {
    std::lock_guard lock(error_mutex_);
    if (error_.empty()) {
      error_ = report.to_string();
      report_ = std::move(report);
    }
  }
  failed_.store(true, std::memory_order_seq_cst);
  // Cooperative cancellation: drain every queued elimination so a doomed
  // parallel factorization returns in the time of one in-flight task, not
  // the time of the whole elimination tree.
  if (pool_ != nullptr) pool_->cancel();
}

void NumericFactor::stamp_resource(ResourceReport& r, index_t k) const {
  if (r.supernode < 0) r.supernode = k;
  if (r.elapsed_seconds == 0) {
    r.elapsed_seconds =
        gov_ != nullptr ? gov_->elapsed_seconds() : trace_clock_.elapsed();
  }
}

void NumericFactor::record_resource_failure(ResourceReport report) {
  {
    std::lock_guard lock(error_mutex_);
    if (error_.empty()) {
      error_ = report.to_string();
      resource_report_ = std::move(report);
      resource_failed_ = true;
    }
  }
  failed_.store(true, std::memory_order_seq_cst);
  // Same drain contract as record_failure: cancel so the doomed run returns
  // in the time of the in-flight tasks, with ThreadPool::pending() == 0.
  if (pool_ != nullptr) pool_->cancel();
}

void NumericFactor::throw_recorded() const {
  // Called only after the run drained (wait_idle returned / sequential loop
  // exited): no concurrent writers remain, so the reports are safe to read
  // without the mutex.
  if (resource_failed_) throw ResourceError(error_, resource_report_);
  throw NumericalError(error_, report_);
}

void NumericFactor::poll_deadline(index_t k) const {
  if (gov_ == nullptr) return;
  if (!gov_->deadline_exceeded()) return;
  ResourceReport r = gov_->deadline_report(k);
  throw ResourceError(r.to_string(), std::move(r));
}

void NumericFactor::maybe_inject_alloc_fail(index_t k) const {
  if (opts_.fault.kind != FaultInjection::Kind::AllocFail) return;
  // at_bytes > 0 arms the MemoryTracker fail point instead (Solver does it
  // at attempt start); this hook handles the supernode-targeted form.
  if (opts_.fault.at_bytes != 0) return;
  if (opts_.fault.supernode != k || !opts_.fault.try_fire()) return;
  const MemoryTracker& t = MemoryTracker::instance();
  ResourceReport r;
  r.kind = ResourceKind::MemoryBudget;
  r.budget_bytes = t.budget();
  r.category = MemCategory::Factors;
  for (std::size_t c = 0; c < r.live_bytes.size(); ++c) {
    r.live_bytes[c] = t.current(static_cast<MemCategory>(c));
  }
  r.peak_bytes = t.peak_total();
  r.supernode = k;
  r.injected = true;
  r.elapsed_seconds =
      gov_ != nullptr ? gov_->elapsed_seconds() : trace_clock_.elapsed();
  r.detail = "injected allocation failure at supernode assembly";
  throw ResourceError(r.to_string(), std::move(r));
}

void NumericFactor::maybe_skew_clock(index_t k) {
  if (opts_.fault.kind != FaultInjection::Kind::ClockSkew) return;
  if (opts_.fault.supernode != k || gov_ == nullptr) return;
  if (!opts_.fault.try_fire()) return;
  gov_->skew(opts_.fault.skew_seconds);
}

void NumericFactor::check_cblk_finite(index_t k, FailureKind kind) const {
  const CblkData& cd = data_[static_cast<std::size_t>(k)];
  const char* where = nullptr;
  if (!all_finite(cd.diag)) where = "diagonal block";
  if (where == nullptr) {
    for (const auto& blk : cd.lpanel) {
      if (!all_finite(blk)) { where = "L panel"; break; }
    }
  }
  if (where == nullptr) {
    for (const auto& blk : cd.upanel) {
      if (!all_finite(blk)) { where = "U panel"; break; }
    }
  }
  if (where != nullptr) {
    std::ostringstream os;
    os << "non-finite value in " << where << " of supernode " << k
       << (kind == FailureKind::NonFiniteBlock ? " after assembly"
                                               : " after panel factorization");
    fail(make_report(kind, k, -1, std::nan(""), os.str()));
  }
}

void NumericFactor::maybe_fail_compression(index_t k) {
  if (opts_.fault.kind != FaultInjection::Kind::CompressionFail) return;
  const index_t idx = compressions_.fetch_add(1, std::memory_order_relaxed);
  if (idx == opts_.fault.index && opts_.fault.try_fire()) {
    std::ostringstream os;
    os << "injected failure of compression #" << idx;
    fail(make_report(FailureKind::CompressionFailure, k, -1, std::nan(""),
                     os.str()));
  }
}

void NumericFactor::gather_panel(index_t k, const sparse::CscMatrix& src,
                                 std::vector<lr::Tile>& panel, bool fill_diag) {
  const symbolic::Cblk& c = sf_.cblk(k);
  const index_t w = c.width();
  CblkData& cd = data_[static_cast<std::size_t>(k)];
  la::DMatrix& diag = cd.diag.dense();

  std::vector<la::DMatrix> scratch;
  scratch.reserve(c.bloks.size());
  for (const auto& b : c.bloks) {
    // On a re-factorization the previous pass's retired factor buffers are
    // recycled through the pool — same shapes, so steady state is all hits.
    scratch.push_back(reuse_.buffers != nullptr
                          ? reuse_.buffers->acquire(b.height(), w)
                          : la::DMatrix(b.height(), w));
  }

  const auto& colptr = src.colptr();
  const auto& rowind = src.rowind();
  const auto& values = src.values();
  for (index_t j = c.fcol; j < c.lcol; ++j) {
    for (index_t p = colptr[static_cast<std::size_t>(j)];
         p < colptr[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t i = rowind[static_cast<std::size_t>(p)];
      const real_t v = values[static_cast<std::size_t>(p)];
      if (i < c.fcol) continue;  // upper part, owned by an earlier cblk
      if (i < c.lcol) {
        if (fill_diag) diag(i - c.fcol, j - c.fcol) = v;
        continue;
      }
      const index_t idx = find_blok_row(c, i);
      scratch[static_cast<std::size_t>(idx)](
          i - c.bloks[static_cast<std::size_t>(idx)].frow, j - c.fcol) = v;
    }
  }

  // The policy decides each tile's representation (Minimal-Memory and
  // Adaptive compress here; Dense and Just-In-Time keep the gathered dense).
  panel.reserve(c.bloks.size());
  const bool upper = !fill_diag;  // U-panel gathers come from the transpose
  for (std::size_t idx = 0; idx < c.bloks.size(); ++idx) {
    lr::Tile t =
        policy_->assemble(k, BlockSite{static_cast<index_t>(idx), upper},
                          std::move(scratch[idx]),
                          compressible(k, c.bloks[idx]), pctx_, cd.arena);
    t.advance(lr::TileState::Assembled);
    if (t.is_lowrank()) t.advance(lr::TileState::Compressed);
    panel.push_back(std::move(t));
  }
}

void NumericFactor::assemble_cblk(index_t k) {
  poll_deadline(k);
  maybe_inject_alloc_fail(k);
  const symbolic::Cblk& c = sf_.cblk(k);
  CblkData& cd = data_[static_cast<std::size_t>(k)];
  cd.diag = reuse_.buffers != nullptr
                ? lr::Tile::from_dense(
                      reuse_.buffers->acquire(c.width(), c.width()), cd.arena)
                : lr::Tile::make_dense(c.width(), c.width(), cd.arena);
  gather_panel(k, ap_, cd.lpanel, /*fill_diag=*/true);
  if (!llt_) gather_panel(k, apt_, cd.upanel, /*fill_diag=*/false);
  if (opts_.fault.kind == FaultInjection::Kind::PoisonBlock &&
      opts_.fault.supernode == k && opts_.fault.try_fire()) {
    // Injected data corruption: the non-finite assembly guard below (or the
    // factored-panel guard, when check_finite is off at assembly) must turn
    // this into a structured failure instead of a garbage answer.
    cd.diag.dense()(0, 0) = std::numeric_limits<real_t>::quiet_NaN();
  }
  if (opts_.check_finite) check_cblk_finite(k, FailureKind::NonFiniteBlock);
  cd.diag.advance(lr::TileState::Assembled);
  if (opts_.accumulate_updates) {
    // Rank-0 low-rank tiles in the Workspace arena; appended contributions
    // grow them until a flush folds them into the panel tile.
    cd.lacc.reserve(c.bloks.size());
    for (const auto& b : c.bloks) {
      cd.lacc.push_back(lr::Tile::make_lowrank(b.height(), c.width(),
                                               lr::LrMatrix(), cd.acc_arena));
    }
    if (!llt_) {
      cd.uacc.reserve(c.bloks.size());
      for (const auto& b : c.bloks) {
        cd.uacc.push_back(lr::Tile::make_lowrank(b.height(), c.width(),
                                                 lr::LrMatrix(), cd.acc_arena));
      }
    }
  }
}

void NumericFactor::flush_accumulator(index_t cblk, bool upper, index_t blok_idx) {
  CblkData& cd = data_[static_cast<std::size_t>(cblk)];
  auto& accs = upper ? cd.uacc : cd.lacc;
  lr::Tile& acc = accs[static_cast<std::size_t>(blok_idx)];
  if (acc.rank() <= 0) return;

  const index_t rows = acc.rows();
  const index_t cols = acc.cols();
  lr::Tile p = std::move(acc);  // Workspace accounting moves with it
  acc = lr::Tile::make_lowrank(rows, cols, lr::LrMatrix(), cd.acc_arena);

  lr::Tile& tb = (upper ? cd.upanel : cd.lpanel)[static_cast<std::size_t>(blok_idx)];
  // The accumulator is already padded to the block's shape.
  dispatch::extend_add(tb, p, 0, 0, opts_.kind, opts_.tolerance, false);
}

void NumericFactor::flush_all_accumulators(index_t cblk) {
  CblkData& cd = data_[static_cast<std::size_t>(cblk)];
  for (std::size_t i = 0; i < cd.lacc.size(); ++i)
    flush_accumulator(cblk, false, static_cast<index_t>(i));
  for (std::size_t i = 0; i < cd.uacc.size(); ++i)
    flush_accumulator(cblk, true, static_cast<index_t>(i));
}

void NumericFactor::assemble_all() {
  for (index_t k = 0; k < sf_.num_cblks(); ++k) {
    try {
      assemble_cblk(k);
    } catch (ResourceError& e) {
      // Sequential context (constructor): stamp the requesting supernode and
      // let the breach propagate to Solver::factorize's resource ladder.
      stamp_resource(e.report(), k);
      throw;
    }
  }
}

void NumericFactor::factorize(ThreadPool* pool) {
  const index_t ncblk = sf_.num_cblks();
  failed_.store(false);
  {
    std::lock_guard lock(error_mutex_);
    error_.clear();
    report_ = FailureReport{};
    resource_failed_ = false;
    resource_report_ = ResourceReport{};
  }
  trace_.clear();
  trace_clock_.reset();

  if (opts_.scheduling == Scheduling::LeftLooking) {
    // The left-looking schedule is inherently sequential here: each
    // supernode pulls all its updates when it is eliminated.
    factorize_left_looking();
    return;
  }

  if (opts_.dataflow == Dataflow::Dag) {
    factorize_dag(pool);
    return;
  }

  // Dependency counters: one per incoming block update.
  for (auto& d : deps_) d.store(0, std::memory_order_relaxed);
  for (index_t k = 0; k < ncblk; ++k) {
    const auto& bloks = sf_.cblk(k).bloks;
    const index_t nb = static_cast<index_t>(bloks.size());
    for (index_t j = 0; j < nb; ++j) {
      for (index_t i = llt_ ? j : 0; i < nb; ++i) {
        const index_t t = std::min(bloks[static_cast<std::size_t>(i)].fcblk,
                                   bloks[static_cast<std::size_t>(j)].fcblk);
        deps_[static_cast<std::size_t>(t)].fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  if (pool == nullptr) {
    // Sequential right-looking pass: elimination order guarantees every
    // update lands before its target is processed.
    for (index_t k = 0; k < ncblk && !failed_.load(std::memory_order_relaxed);
         ++k) {
      eliminate(k);
    }
    if (failed_.load()) throw_recorded();
    return;
  }

  pool_ = pool;
  // Snapshot the initially-ready set before submitting anything: a running
  // task may drain another cblk's counter to zero and submit it itself, and
  // submitting it here too would eliminate the same supernode twice.
  std::vector<index_t> ready;
  for (index_t k = 0; k < ncblk; ++k) {
    if (deps_[static_cast<std::size_t>(k)].load(std::memory_order_relaxed) == 0) {
      ready.push_back(k);
    }
  }
  // Submit with critical-path priorities: among the (many) initially-ready
  // leaves the scheduler picks the one heading the most expensive chain to
  // the root first, which keeps the elimination tree's critical path moving.
  const auto& prio = sf_.critical_priorities();
  for (const index_t k : ready) {
    pool->submit([this, k] { eliminate(k); }, prio[static_cast<std::size_t>(k)]);
  }
  pool->wait_idle();
  // A failure cancelled the pool to drain queued eliminations; clear the
  // flag so the pool is immediately reusable (recovery retries, benches).
  pool->reset_cancel();
  pool_ = nullptr;
  if (failed_.load()) throw_recorded();
}

void NumericFactor::factorize_left_looking() {
  // For each target, the list of (source supernode, row blok, col blok)
  // updates it receives; built once from the same pair enumeration the
  // right-looking schedule uses.
  struct Update {
    index_t k, bi, bj;
  };
  const index_t ncblk = sf_.num_cblks();
  std::vector<std::vector<Update>> incoming(static_cast<std::size_t>(ncblk));
  for (index_t k = 0; k < ncblk; ++k) {
    const auto& bloks = sf_.cblk(k).bloks;
    const index_t nb = static_cast<index_t>(bloks.size());
    for (index_t j = 0; j < nb; ++j) {
      for (index_t i = llt_ ? j : 0; i < nb; ++i) {
        const index_t t = std::min(bloks[static_cast<std::size_t>(i)].fcblk,
                                   bloks[static_cast<std::size_t>(j)].fcblk);
        incoming[static_cast<std::size_t>(t)].push_back({k, i, j});
      }
    }
  }

  for (index_t k = 0; k < ncblk; ++k) {
    const double t0 = opts_.collect_trace ? trace_clock_.elapsed() : 0.0;
    try {
      // Allocate and assemble this supernode only now — the memory gain of
      // the left-looking schedule (paper §4.3).
      assemble_cblk(k);
      for (const Update& u : incoming[static_cast<std::size_t>(k)]) {
        apply_update(u.k, u.bi, u.bj);
      }
      incoming[static_cast<std::size_t>(k)].clear();
      incoming[static_cast<std::size_t>(k)].shrink_to_fit();
      factor_panel(k);
    } catch (ResourceError& e) {
      // Sequential schedule: stamp and propagate straight to the ladder.
      stamp_resource(e.report(), k);
      throw;
    }
    if (opts_.collect_trace) {
      trace_.push_back({k, 0, t0, trace_clock_.elapsed()});
    }
  }
}

// ---- dataflow execution (options.dataflow == Dag, DESIGN.md §12) --------
//
// The factorization becomes a task DAG over per-tile operations. Task ids
// are the canonical sequence numbers — the exact order the barrier driver
// runs the same operations — and applies into one target tile are chained
// (write-after-write edges) in that order, so every tile sees the same value
// history under any topological execution order. Consequence: dataflow runs
// are bit-identical to the sequential barrier run at every thread count.

void NumericFactor::factorize_dag(ThreadPool* pool) {
  pool_ = pool;
  // A Solver-cached skeleton (same plan, same llt flavor) skips the rebuild;
  // the graph is symbolic-only and execute() is const, so sharing one across
  // numeric passes is free of aliasing.
  if (reuse_.dag != nullptr) {
    dagp_ = reuse_.dag;
  } else {
    dag_ = std::make_unique<TaskGraph>(TaskGraph::build(sf_, llt_));
    dagp_ = dag_.get();
  }
  epochs_ = std::make_unique<EpochGate>(dagp_->num_addrs());
  dag_slots_.clear();
  dag_slots_.resize(dagp_->num_updates());
  dag_stats_ = DagStats{};
  dag_stats_.tasks = dagp_->num_tasks();
  dag_stats_.edges = dagp_->num_edges();
  dag_stats_.critical_path = dagp_->critical_path();

  const auto& prio = sf_.critical_priorities();
  const TaskGraph::RunStats rs = dagp_->execute(
      pool, [this](std::uint32_t id) { return run_dag_task(id); },
      [this, &prio](std::uint32_t id) {
        return prio[static_cast<std::size_t>(dagp_->task(id).k)];
      });
  dag_stats_.executed = rs.executed;
  dag_stats_.ready_peak = rs.ready_peak;

  // A failure cancelled the pool (record_failure); make it reusable.
  if (pool != nullptr) pool->reset_cancel();
  pool_ = nullptr;
  dag_slots_.clear();
  dag_slots_.shrink_to_fit();
  dag_.reset();
  dagp_ = nullptr;
  epochs_.reset();
  // The DAG assembles lazily; the permuted input can go only now.
  ap_ = sparse::CscMatrix();
  apt_ = sparse::CscMatrix();
  input_track_ = TrackedAlloc();
  if (failed_.load()) throw_recorded();
}

bool NumericFactor::run_dag_task(std::uint32_t id) {
  if (failed_.load(std::memory_order_relaxed)) return false;
  const DagTask& t = dagp_->task(id);
  try {
    poll_deadline(t.k);
    switch (t.kind) {
      case DagTaskKind::Assemble: dag_assemble(t); break;
      case DagTaskKind::Factor: dag_factor(t); break;
      case DagTaskKind::Compress: dag_compress(t); break;
      case DagTaskKind::Trsm: dag_trsm(t); break;
      case DagTaskKind::Product: dag_product(t); break;
      case DagTaskKind::Apply: dag_apply(t); break;
    }
  } catch (ResourceError& e) {
    stamp_resource(e.report(), t.k);
    record_resource_failure(std::move(e.report()));
    return false;
  } catch (const NumericalError& e) {
    record_failure(e.report());
    return false;
  } catch (const std::exception& e) {
    record_failure(make_report(FailureKind::Unknown, t.k, -1, std::nan(""),
                               e.what()));
    return false;
  }
  return true;
}

void NumericFactor::dag_assemble(const DagTask& t) {
  assemble_cblk(t.k);
  const index_t nb = static_cast<index_t>(sf_.cblk(t.k).bloks.size());
  epochs_->advance(dagp_->diag_addr(t.k), EpochGate::kUnassembled,
                   EpochGate::kAssembled);
  for (index_t i = 0; i < nb; ++i) {
    epochs_->advance(dagp_->panel_addr(t.k, false, i), EpochGate::kUnassembled,
                     EpochGate::kAssembled);
  }
  if (!llt_) {
    for (index_t i = 0; i < nb; ++i) {
      epochs_->advance(dagp_->panel_addr(t.k, true, i), EpochGate::kUnassembled,
                       EpochGate::kAssembled);
    }
  }
}

void NumericFactor::dag_factor(const DagTask& t) {
  const index_t k = t.k;
  CblkData& cd = data_[static_cast<std::size_t>(k)];
  const double t0 = opts_.collect_trace ? trace_clock_.elapsed() : 0.0;
  epochs_->expect(dagp_->diag_addr(k), EpochGate::kAssembled);
  maybe_skew_clock(k);
  poll_deadline(k);

  if (opts_.fault.kind == FaultInjection::Kind::TinyPivot &&
      opts_.fault.supernode == k && opts_.fault.try_fire()) {
    la::DMatrix& dg = cd.diag.dense();
    for (index_t i = 0; i < dg.rows(); ++i) dg(i, 0) = 0;
    dg(0, 0) = 0;
  }

  index_t replaced = 0;
  const index_t info =
      dispatch::factor_diag(cd.diag, cd.ipiv, llt_, pivot_cutoff_, replaced);
  if (replaced > 0)
    pivots_replaced_.fetch_add(replaced, std::memory_order_relaxed);
  if (info != 0) {
    const index_t piv = info - 1;
    const double mag = std::abs(static_cast<double>(cd.diag.dense()(piv, piv)));
    std::ostringstream os;
    os << (llt_ ? "potrf" : "getrf") << " cannot eliminate the pivot";
    fail(make_report(llt_ ? FailureKind::NonPositivePivot
                          : FailureKind::ZeroPivot,
                     k, piv, mag, os.str()));
  }
  if (opts_.check_finite && !all_finite(cd.diag)) {
    std::ostringstream os;
    os << "non-finite value in diagonal block of supernode " << k
       << " after panel factorization";
    fail(make_report(FailureKind::NonFinitePanel, k, -1, std::nan(""),
                     os.str()));
  }
  cd.diag.advance(lr::TileState::Factored);
  cd.eliminated = true;
  epochs_->advance(dagp_->diag_addr(k), EpochGate::kAssembled,
                   EpochGate::kFactored);
  if (opts_.collect_trace) {
    // One event per supernode, anchored at its diagonal factorization (the
    // panel's serialization point in the DAG schedule).
    const double t1 = trace_clock_.elapsed();
    const int wid = ThreadPool::current_worker();
    const std::size_t worker = wid >= 0 ? static_cast<std::size_t>(wid) : 0;
    std::lock_guard lock(trace_mutex_);
    trace_.push_back({k, worker, t0, t1});
  }
}

void NumericFactor::dag_compress(const DagTask& t) {
  const std::uint64_t addr = dagp_->panel_addr(t.k, t.upper, t.bi);
  epochs_->expect(addr, EpochGate::kAssembled);
  if (opts_.accumulate_updates) flush_accumulator(t.k, t.upper, t.bi);
  CblkData& cd = data_[static_cast<std::size_t>(t.k)];
  lr::Tile& blk =
      (t.upper ? cd.upanel : cd.lpanel)[static_cast<std::size_t>(t.bi)];
  const symbolic::Blok& sb = sf_.cblk(t.k).bloks[static_cast<std::size_t>(t.bi)];
  policy_->at_elimination(t.k, BlockSite{t.bi, t.upper}, blk,
                          compressible(t.k, sb), pctx_);
  epochs_->advance(addr, EpochGate::kAssembled, EpochGate::kEliminating);
}

void NumericFactor::dag_trsm(const DagTask& t) {
  const std::uint64_t addr = dagp_->panel_addr(t.k, t.upper, t.bi);
  epochs_->expect(dagp_->diag_addr(t.k), EpochGate::kFactored);
  epochs_->expect(addr, EpochGate::kEliminating);
  CblkData& cd = data_[static_cast<std::size_t>(t.k)];
  lr::Tile& blk =
      (t.upper ? cd.upanel : cd.lpanel)[static_cast<std::size_t>(t.bi)];
  if (blk.rank() != 0)
    dispatch::panel_solve(cd.diag, cd.ipiv, blk, llt_, t.upper);
  blk.advance(lr::TileState::Factored);
  if (opts_.check_finite && !all_finite(blk)) {
    std::ostringstream os;
    os << "non-finite value in " << (t.upper ? "U panel" : "L panel")
       << " of supernode " << t.k << " after panel factorization";
    fail(make_report(FailureKind::NonFinitePanel, t.k, -1, std::nan(""),
                     os.str()));
  }
  epochs_->advance(addr, EpochGate::kEliminating, EpochGate::kFactored);
}

void NumericFactor::dag_product(const DagTask& t) {
  CblkData& cd = data_[static_cast<std::size_t>(t.k)];
  const lr::Tile* a = &cd.lpanel[static_cast<std::size_t>(t.bi)];
  const lr::Tile* b = llt_ ? &cd.lpanel[static_cast<std::size_t>(t.bj)]
                           : &cd.upanel[static_cast<std::size_t>(t.bj)];
  epochs_->expect(dagp_->panel_addr(t.k, false, t.bi), EpochGate::kFactored);
  epochs_->expect(llt_ ? dagp_->panel_addr(t.k, false, t.bj)
                       : dagp_->panel_addr(t.k, true, t.bj),
                  EpochGate::kFactored);

  auto slot = std::make_unique<DagUpdateSlot>();
  slot->loc = locate_update(t.k, t.bi, t.bj);
  slot->a = a;
  slot->b = b;
  if (a->rank() == 0 || b->rank() == 0) {
    slot->zero = true;
  } else if (!a->is_lowrank() && !b->is_lowrank()) {
    // Dense×dense fuses the GEMM into the target under the lock, so the
    // whole update defers to the (chained) apply task.
    slot->dense_pair = true;
  } else {
    slot->prod = dispatch::product(*a, *b, opts_.kind, opts_.tolerance,
                                   update_need_ortho(slot->loc));
  }
  dag_slots_[t.slot] = std::move(slot);
}

void NumericFactor::dag_apply(const DagTask& t) {
  std::unique_ptr<DagUpdateSlot> slot =
      std::move(dag_slots_[t.slot]);
  if (!slot) throw Error("dag: apply task ran without its product");
  const UpdateLoc& loc = slot->loc;
  const std::uint64_t taddr =
      loc.target_diag ? dagp_->diag_addr(loc.tcblk)
                      : dagp_->panel_addr(loc.tcblk, loc.target_upper,
                                         loc.tb_idx);
  // Updates may only land on assembled, not-yet-eliminating tiles — the
  // runtime-checked half of the Tile state contract at DAG granularity.
  epochs_->expect(taddr, EpochGate::kAssembled);
  if (slot->zero) return;
  if (slot->dense_pair) {
    dense_dense_update(loc, *slot->a, *slot->b);
  } else {
    finish_update(loc, std::move(slot->prod));
  }
}

void NumericFactor::eliminate(index_t k) {
  if (failed_.load(std::memory_order_relaxed)) return;
  const double t0 = opts_.collect_trace ? trace_clock_.elapsed() : 0.0;
  try {
    factor_panel(k);

    // Right-looking updates on the trailing supernodes. Large panels are
    // split into 1D column-blok segments submitted as subtasks, so the
    // updates of one huge supernode spread across the pool instead of
    // pinning a single worker.
    const symbolic::Cblk& c = sf_.cblk(k);
    const index_t nb = static_cast<index_t>(c.bloks.size());
    const bool split = pool_ != nullptr &&
                       opts_.panel_split_rows > 0 && nb >= 2 &&
                       c.height() >= opts_.panel_split_rows;
    if (!split) {
      update_range(k, 0, nb);
    } else {
      const index_t height = c.height();
      index_t nseg = std::min<index_t>(
          nb, (height + opts_.panel_split_rows - 1) / opts_.panel_split_rows);
      nseg = std::min<index_t>(nseg, 4 * pool_->size());
      // Greedy row-balanced segmentation of the column bloks.
      const index_t per = (height + nseg - 1) / nseg;
      const std::int64_t pr =
          sf_.critical_priorities()[static_cast<std::size_t>(k)];
      index_t jb = 0;
      index_t acc = 0;
      for (index_t j = 0; j < nb; ++j) {
        acc += c.bloks[static_cast<std::size_t>(j)].height();
        if (acc >= per || j == nb - 1) {
          const index_t je = j + 1;
          if (jb == 0 && je == nb) {
            update_range(k, 0, nb);  // degenerate single segment
          } else {
            pool_->submit([this, k, jb, je] { update_range(k, jb, je); }, pr);
          }
          jb = je;
          acc = 0;
        }
      }
    }
  } catch (ResourceError& e) {
    stamp_resource(e.report(), k);
    record_resource_failure(std::move(e.report()));
  } catch (const NumericalError& e) {
    record_failure(e.report());
  } catch (const std::exception& e) {
    record_failure(make_report(FailureKind::Unknown, k, -1, std::nan(""),
                               e.what()));
  }
  if (opts_.collect_trace) {
    const double t1 = trace_clock_.elapsed();
    const int wid = ThreadPool::current_worker();
    const std::size_t worker = wid >= 0 ? static_cast<std::size_t>(wid) : 0;
    std::lock_guard lock(trace_mutex_);
    trace_.push_back({k, worker, t0, t1});
  }
}

void NumericFactor::update_range(index_t k, index_t jb, index_t je) {
  if (failed_.load(std::memory_order_relaxed)) return;
  try {
    const symbolic::Cblk& c = sf_.cblk(k);
    const index_t nb = static_cast<index_t>(c.bloks.size());
    const auto& prio = sf_.critical_priorities();
    for (index_t j = jb; j < je; ++j) {
      for (index_t i = llt_ ? j : 0; i < nb; ++i) {
        // Early exit at block-update granularity: once a sibling failed the
        // remaining updates are dead work on a doomed factorization.
        if (failed_.load(std::memory_order_relaxed)) return;
        poll_deadline(k);
        const index_t target = apply_update(k, i, j);
        const index_t left =
            deps_[static_cast<std::size_t>(target)].fetch_sub(1,
                                                              std::memory_order_acq_rel) - 1;
        if (left == 0 && pool_ != nullptr) {
          pool_->submit([this, target] { eliminate(target); },
                        prio[static_cast<std::size_t>(target)]);
        }
      }
    }
  } catch (ResourceError& e) {
    stamp_resource(e.report(), k);
    record_resource_failure(std::move(e.report()));
  } catch (const NumericalError& e) {
    record_failure(e.report());
  } catch (const std::exception& e) {
    record_failure(make_report(FailureKind::Unknown, k, -1, std::nan(""),
                               e.what()));
  }
}

void NumericFactor::factor_panel(index_t k) {
  if (failed_.load(std::memory_order_relaxed)) return;
  maybe_skew_clock(k);
  poll_deadline(k);
  {
    const symbolic::Cblk& c = sf_.cblk(k);
    CblkData& cd = data_[static_cast<std::size_t>(k)];

    // Merge any pending LUAR accumulators: every incoming update must be in
    // the panels before elimination. All updates into k are already applied
    // (dependency counters), so no lock is needed.
    if (opts_.accumulate_updates) flush_all_accumulators(k);

    if (opts_.fault.kind == FaultInjection::Kind::TinyPivot &&
        opts_.fault.supernode == k && opts_.fault.try_fire()) {
      // Injected breakdown: zero the leading pivot column so partial
      // pivoting finds nothing (getrf) / the pivot is non-positive (potrf).
      // Static pivoting, when enabled, replaces the pivot instead — the
      // injected fault exercises the same masking a real tiny pivot would.
      la::DMatrix& dg = cd.diag.dense();
      for (index_t i = 0; i < dg.rows(); ++i) dg(i, 0) = 0;
      dg(0, 0) = 0;
    }

    {
      index_t replaced = 0;
      const index_t info =
          dispatch::factor_diag(cd.diag, cd.ipiv, llt_, pivot_cutoff_, replaced);
      if (replaced > 0)
        pivots_replaced_.fetch_add(replaced, std::memory_order_relaxed);
      if (info != 0) {
        const index_t piv = info - 1;
        const double mag =
            std::abs(static_cast<double>(cd.diag.dense()(piv, piv)));
        std::ostringstream os;
        os << (llt_ ? "potrf" : "getrf") << " cannot eliminate the pivot";
        fail(make_report(llt_ ? FailureKind::NonPositivePivot
                              : FailureKind::ZeroPivot,
                         k, piv, mag, os.str()));
      }
    }
    if (failed_.load(std::memory_order_relaxed)) return;

    // Elimination-time policy hook: Just-In-Time compresses the accumulated
    // panels now (Algorithm 2 l.3-4); Minimal-Memory and Adaptive re-attempt
    // the blocks that are (still) dense — e.g. after an extend-add
    // transiently exceeded the storage-beneficial rank — which keeps the
    // final factor size of the scenarios similar, as the paper reports.
    const auto hook_panel = [&](std::vector<lr::Tile>& panel, bool upper) {
      for (std::size_t idx = 0; idx < panel.size(); ++idx) {
        // Early exit at panel granularity once a sibling has failed.
        if (failed_.load(std::memory_order_relaxed)) return;
        policy_->at_elimination(k, BlockSite{static_cast<index_t>(idx), upper},
                                panel[idx], compressible(k, c.bloks[idx]),
                                pctx_);
      }
    };
    hook_panel(cd.lpanel, /*upper=*/false);
    if (!llt_) hook_panel(cd.upanel, /*upper=*/true);
    if (failed_.load(std::memory_order_relaxed)) return;

    // Panel solves: each TRSM reads the (now immutable) factored diagonal
    // and mutates only its own tile.
    const auto solve_panel = [&](std::vector<lr::Tile>& panel, bool upper) {
      for (auto& blk : panel) {
        if (failed_.load(std::memory_order_relaxed)) return;
        if (blk.rank() != 0)
          dispatch::panel_solve(cd.diag, cd.ipiv, blk, llt_, upper);
        blk.advance(lr::TileState::Factored);
      }
    };
    solve_panel(cd.lpanel, /*upper=*/false);
    if (!llt_) solve_panel(cd.upanel, /*upper=*/true);
    if (failed_.load(std::memory_order_relaxed)) return;
    // Guard the factored panel: overflow/NaN escaping the diagonal
    // factorization or the triangular solves is caught here instead of
    // surfacing as an inexplicably wrong solution.
    if (opts_.check_finite) check_cblk_finite(k, FailureKind::NonFinitePanel);
    cd.diag.advance(lr::TileState::Factored);
    cd.eliminated = true;
  }
}

UpdateLoc NumericFactor::locate_update(index_t k, index_t bi, index_t bj) const {
  const symbolic::Cblk& c = sf_.cblk(k);
  const symbolic::Blok& rb = c.bloks[static_cast<std::size_t>(bi)];  // rows
  const symbolic::Blok& cb = c.bloks[static_cast<std::size_t>(bj)];  // cols

  // Locate the target: diagonal block when both intervals live in the same
  // supernode; otherwise the L blok of the earlier cblk (lower triangle) or,
  // mirrored/transposed, the U blok (upper triangle, LU only).
  UpdateLoc loc;
  loc.rh = rb.height();
  loc.ch = cb.height();
  if (rb.fcblk == cb.fcblk) {
    loc.tcblk = rb.fcblk;
    const symbolic::Cblk& tc = sf_.cblk(loc.tcblk);
    loc.target_diag = true;
    loc.roff = rb.frow - tc.fcol;
    loc.coff = cb.frow - tc.fcol;
  } else if (rb.fcblk > cb.fcblk) {
    loc.tcblk = cb.fcblk;
    const symbolic::Cblk& tc = sf_.cblk(loc.tcblk);
    loc.tb_idx = sf_.find_blok(loc.tcblk, rb.frow, rb.lrow);
    loc.roff = rb.frow - tc.bloks[static_cast<std::size_t>(loc.tb_idx)].frow;
    loc.coff = cb.frow - tc.fcol;
  } else {
    loc.tcblk = rb.fcblk;
    const symbolic::Cblk& tc = sf_.cblk(loc.tcblk);
    loc.tb_idx = sf_.find_blok(loc.tcblk, cb.frow, cb.lrow);
    loc.roff = cb.frow - tc.bloks[static_cast<std::size_t>(loc.tb_idx)].frow;
    loc.coff = rb.frow - tc.fcol;
    loc.transpose = true;
    loc.target_upper = true;
  }
  return loc;
}

bool NumericFactor::update_need_ortho(const UpdateLoc& loc) const {
  // The orthonormality requirement keys off the target's representation as
  // decided at assembly (immutable, unlike the live tag, so safe to read
  // without the target lock).
  bool target_assembled_lowrank = false;
  if (!loc.target_diag) {
    const CblkData& td = data_[static_cast<std::size_t>(loc.tcblk)];
    const lr::Tile& tbc =
        loc.target_upper ? td.upanel[static_cast<std::size_t>(loc.tb_idx)]
                         : td.lpanel[static_cast<std::size_t>(loc.tb_idx)];
    target_assembled_lowrank = tbc.assembled_lowrank();
  }
  return policy_->need_ortho(target_assembled_lowrank);
}

void NumericFactor::dense_dense_update(const UpdateLoc& loc, const lr::Tile& a,
                                       const lr::Tile& b) {
  // Dense x dense: fuse the GEMM straight into a dense target; only a
  // low-rank target needs an explicit contribution.
  CblkData& td = data_[static_cast<std::size_t>(loc.tcblk)];
  std::lock_guard guard(locks_[static_cast<std::size_t>(loc.tcblk)]);
  if (loc.target_diag) {
    dispatch::gemm_into(td.diag.dense().sub(loc.roff, loc.coff, loc.rh, loc.ch),
                        a, b, /*transpose=*/false);
    return;
  }
  lr::Tile& tb = loc.target_upper
                     ? td.upanel[static_cast<std::size_t>(loc.tb_idx)]
                     : td.lpanel[static_cast<std::size_t>(loc.tb_idx)];
  if (tb.is_lowrank()) {
    lr::Tile p = dispatch::product(a, b, opts_.kind, opts_.tolerance,
                                   /*need_ortho=*/false);
    dispatch::extend_add(tb, p, loc.roff, loc.coff, opts_.kind, opts_.tolerance,
                         loc.transpose);
    return;
  }
  // roff/coff are already expressed in the target block's coordinates;
  // only the contribution's dimensions swap under transposition. The
  // fused kernel subtracts (A·Bᵗ)ᵗ = B·Aᵗ for the transposed mirror.
  la::DView tview = tb.dense().sub(loc.roff, loc.coff,
                                   loc.transpose ? loc.ch : loc.rh,
                                   loc.transpose ? loc.rh : loc.ch);
  dispatch::gemm_into(tview, a, b, loc.transpose);
}

void NumericFactor::finish_update(const UpdateLoc& loc, lr::Tile p) {
  if (p.is_lowrank() && p.rank() == 0) return;

  CblkData& td = data_[static_cast<std::size_t>(loc.tcblk)];
  std::lock_guard guard(locks_[static_cast<std::size_t>(loc.tcblk)]);
  if (loc.target_diag) {
    dispatch::apply_contribution(
        td.diag.dense().sub(loc.roff, loc.coff, loc.rh, loc.ch), p,
        /*transpose=*/false);
    return;
  }
  lr::Tile& tb = loc.target_upper
                     ? td.upanel[static_cast<std::size_t>(loc.tb_idx)]
                     : td.lpanel[static_cast<std::size_t>(loc.tb_idx)];
  if (tb.is_lowrank() && opts_.accumulate_updates && p.is_lowrank()) {
    // LUAR accumulation: append the padded contribution factors and defer
    // the (expensive, target-sized) recompression.
    KernelTimer t(Kernel::LrAddition);
    la::DConstView pu = loc.transpose ? p.lr().v.cview() : p.lr().u.cview();
    la::DConstView pv = loc.transpose ? p.lr().u.cview() : p.lr().v.cview();
    lr::Tile& acc = (loc.target_upper
                         ? td.uacc
                         : td.lacc)[static_cast<std::size_t>(loc.tb_idx)];
    const index_t old_rank = acc.rank();
    la::DMatrix nu(tb.rows(), old_rank + pu.cols);
    la::DMatrix nv(tb.cols(), old_rank + pu.cols);
    if (old_rank > 0) {
      la::copy<real_t>(acc.lr().u.cview(), nu.sub(0, 0, tb.rows(), old_rank));
      la::copy<real_t>(acc.lr().v.cview(), nv.sub(0, 0, tb.cols(), old_rank));
    }
    for (index_t j = 0; j < pu.cols; ++j) {
      std::copy_n(pu.col(j), pu.rows,
                  nu.data() + (old_rank + j) * tb.rows() + loc.roff);
      std::copy_n(pv.col(j), pv.rows,
                  nv.data() + (old_rank + j) * tb.cols() + loc.coff);
    }
    acc.set_lowrank(lr::LrMatrix(std::move(nu), std::move(nv)));
    if (acc.rank() >= opts_.accumulate_max_rank) {
      flush_accumulator(loc.tcblk, loc.target_upper, loc.tb_idx);
    }
  } else {
    dispatch::extend_add(tb, p, loc.roff, loc.coff, opts_.kind, opts_.tolerance,
                         loc.transpose);
  }
}

index_t NumericFactor::apply_update(index_t k, index_t bi, index_t bj) {
  const UpdateLoc loc = locate_update(k, bi, bj);
  CblkData& cd = data_[static_cast<std::size_t>(k)];
  const lr::Tile& a = cd.lpanel[static_cast<std::size_t>(bi)];
  const lr::Tile& b = llt_ ? cd.lpanel[static_cast<std::size_t>(bj)]
                           : cd.upanel[static_cast<std::size_t>(bj)];

  if (a.rank() == 0 || b.rank() == 0) return loc.tcblk;  // zero contribution

  if (!a.is_lowrank() && !b.is_lowrank()) {
    dense_dense_update(loc, a, b);
    return loc.tcblk;
  }

  // At least one low-rank operand: form the contribution outside the lock.
  const bool need_ortho = update_need_ortho(loc);
  lr::Tile p = dispatch::product(a, b, opts_.kind, opts_.tolerance, need_ortho);
  finish_update(loc, std::move(p));
  return loc.tcblk;
}

// ---------------------------------------------------------------------------
// Solve phase (DESIGN.md §16)
// ---------------------------------------------------------------------------

void NumericFactor::set_solve_context(std::shared_ptr<const SolvePlan> plan,
                                      std::shared_ptr<SolveEngine> engine) {
  splan_ = std::move(plan);
  sengine_ = std::move(engine);
}

void NumericFactor::build_widen_cache() const {
  if (num_fp32_blocks() == 0) return;  // pure-fp64 factors: nothing to widen
  const index_t ncblk = sf_.num_cblks();
  std::size_t bytes = 0;
  std::uint64_t tiles = 0;
  std::vector<WidenedPanel> w(static_cast<std::size_t>(ncblk));
  const auto widen = [&](const lr::Tile& blk, la::DMatrix& u, la::DMatrix& v) {
    if (blk.precision() != lr::Precision::Fp32) return;
    const lr::LrMatrix& f = blk.lr();
    u.reshape(f.u32.rows(), f.u32.cols());
    la::convert(f.u32.cview(), u.view());
    v.reshape(f.v32.rows(), f.v32.cols());
    la::convert(f.v32.cview(), v.view());
    bytes += u.bytes() + v.bytes();
    ++tiles;
  };
  for (index_t k = 0; k < ncblk; ++k) {
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    WidenedPanel& wp = w[static_cast<std::size_t>(k)];
    wp.lu.resize(cd.lpanel.size());
    wp.lv.resize(cd.lpanel.size());
    for (std::size_t i = 0; i < cd.lpanel.size(); ++i)
      widen(cd.lpanel[i], wp.lu[i], wp.lv[i]);
    if (!llt_) {
      wp.uu.resize(cd.upanel.size());
      wp.uv.resize(cd.upanel.size());
      for (std::size_t i = 0; i < cd.upanel.size(); ++i)
        widen(cd.upanel[i], wp.uu[i], wp.uv[i]);
    }
  }
  widen_ = std::move(w);
  widen_tiles_ = tiles;
  widen_bytes_ = bytes;
  widen_track_.resize(bytes);
}

void NumericFactor::solve_lr_views(index_t k, index_t bi, bool upper,
                                   const lr::Tile& blk, la::DConstView& u,
                                   la::DConstView& v) const {
  if (blk.precision() == lr::Precision::Fp32) {
    // Widened once per factor on the first solve — every later use is a
    // cache hit instead of a fresh fp32→fp64 promotion pass.
    const WidenedPanel& wp = widen_[static_cast<std::size_t>(k)];
    const std::size_t i = static_cast<std::size_t>(bi);
    u = (upper ? wp.uu : wp.lu)[i].cview();
    v = (upper ? wp.uv : wp.lv)[i].cview();
    widen_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    u = blk.lr().u.cview();
    v = blk.lr().v.cview();
  }
}

void NumericFactor::solve_fwd_diag(index_t k, la::DView x) const {
  const symbolic::Cblk& c = sf_.cblk(k);
  const CblkData& cd = data_[static_cast<std::size_t>(k)];
  dispatch::solve_trsm(cd.diag, cd.ipiv, x.sub(c.fcol, 0, c.width(), x.cols),
                       llt_, /*backward=*/false);
}

void NumericFactor::solve_fwd_upd(index_t k, index_t bi, la::DView x) const {
  const symbolic::Cblk& c = sf_.cblk(k);
  const CblkData& cd = data_[static_cast<std::size_t>(k)];
  const lr::Tile& blk = cd.lpanel[static_cast<std::size_t>(bi)];
  if (blk.rank() == 0) return;
  const symbolic::Blok& b = c.bloks[static_cast<std::size_t>(bi)];
  const la::DConstView xk(x.sub(c.fcol, 0, c.width(), x.cols));
  la::DView xi = x.sub(b.frow, 0, b.height(), x.cols);
  la::DConstView u, v;
  if (blk.is_lowrank()) solve_lr_views(k, bi, /*upper=*/false, blk, u, v);
  dispatch::solve_gemm(blk, u, v, xk, xi, /*backward=*/false);
}

void NumericFactor::solve_bwd_upd(index_t k, index_t bi, la::DView x) const {
  const symbolic::Cblk& c = sf_.cblk(k);
  const CblkData& cd = data_[static_cast<std::size_t>(k)];
  const lr::Tile& blk = llt_ ? cd.lpanel[static_cast<std::size_t>(bi)]
                             : cd.upanel[static_cast<std::size_t>(bi)];
  if (blk.rank() == 0) return;
  const symbolic::Blok& b = c.bloks[static_cast<std::size_t>(bi)];
  const la::DConstView xi(x.sub(b.frow, 0, b.height(), x.cols));
  la::DView xk = x.sub(c.fcol, 0, c.width(), x.cols);
  la::DConstView u, v;
  if (blk.is_lowrank()) solve_lr_views(k, bi, /*upper=*/!llt_, blk, u, v);
  dispatch::solve_gemm(blk, u, v, xi, xk, /*backward=*/true);
}

void NumericFactor::solve_bwd_diag(index_t k, la::DView x) const {
  const symbolic::Cblk& c = sf_.cblk(k);
  const CblkData& cd = data_[static_cast<std::size_t>(k)];
  dispatch::solve_trsm(cd.diag, cd.ipiv, x.sub(c.fcol, 0, c.width(), x.cols),
                       llt_, /*backward=*/true);
}

bool NumericFactor::run_solve_task(const SolveTask& t, la::DView x) const {
  switch (t.kind) {
    case SolveTaskKind::FwdDiag: solve_fwd_diag(t.k, x); break;
    case SolveTaskKind::FwdUpd: solve_fwd_upd(t.k, t.bi, x); break;
    case SolveTaskKind::BwdUpd: solve_bwd_upd(t.k, t.bi, x); break;
    case SolveTaskKind::BwdDiag: solve_bwd_diag(t.k, x); break;
  }
  return true;
}

void NumericFactor::solve_seq(la::DView x, std::uint64_t& ops) const {
  const index_t ncblk = sf_.num_cblks();

  // Forward substitution: L·Y = (locally pivoted) B.
  for (index_t k = 0; k < ncblk; ++k) {
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    solve_fwd_diag(k, x);
    ++ops;
    for (std::size_t idx = 0; idx < cd.lpanel.size(); ++idx) {
      if (cd.lpanel[idx].rank() == 0) continue;
      solve_fwd_upd(k, static_cast<index_t>(idx), x);
      ++ops;
    }
  }

  // Backward substitution: U·X = Y (or Lᵗ·X = Y for Cholesky).
  for (index_t k = ncblk - 1; k >= 0; --k) {
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    const std::vector<lr::Tile>& panel = llt_ ? cd.lpanel : cd.upanel;
    for (std::size_t idx = 0; idx < panel.size(); ++idx) {
      if (panel[idx].rank() == 0) continue;
      solve_bwd_upd(k, static_cast<index_t>(idx), x);
      ++ops;
    }
    solve_bwd_diag(k, x);
    ++ops;
  }
}

void NumericFactor::solve_split(la::DView x, ThreadPool* pool,
                                SolveRunInfo& ri) const {
  // Wide multi-RHS batch: chunk the columns and run each chunk as an
  // independent sequential sweep. Bit-identity with the unsplit sweep rests
  // on the multi-RHS gemm contract: every output column is computed exactly
  // as it would be in any other column grouping (DESIGN.md §14).
  const index_t nchunks =
      std::min<index_t>(x.cols, 2 * static_cast<index_t>(pool->size()));
  const index_t base = x.cols / nchunks;
  const index_t rem = x.cols % nchunks;
  std::atomic<std::uint64_t> ops{0};
  pool->parallel_for(nchunks, [&](index_t i) {
    const index_t c0 = i * base + std::min(i, rem);
    const index_t w = base + (i < rem ? 1 : 0);
    std::uint64_t local = 0;
    solve_seq(x.sub(0, c0, x.rows, w), local);
    ops.fetch_add(local, std::memory_order_relaxed);
  });
  ri.tasks += ops.load(std::memory_order_relaxed);
  ri.column_split = true;
}

void NumericFactor::solve_permuted(la::DView x, SolveRunInfo* info) const {
  // Per-factor caches are built lazily on the first solve; a refactorize
  // creates a fresh NumericFactor, which invalidates them wholesale.
  std::call_once(widen_once_, [this] { build_widen_cache(); });
  const std::uint64_t hits0 = widen_hits_.load(std::memory_order_relaxed);
  SolveRunInfo ri;
  bool done = false;
  if (sengine_ != nullptr) {
    // The solve pool's wait_idle-based drain cannot be shared by two
    // concurrent solves; a loser of this try_lock (e.g. a second session
    // snapshot solving the same factors) takes the sequential sweep instead
    // of blocking.
    std::unique_lock<std::mutex> lk(sengine_->mu, std::try_to_lock);
    if (lk.owns_lock()) {
      ThreadPool* pool = &sengine_->pool;
      if (x.cols >= 2 * static_cast<index_t>(pool->size()) && x.cols > 1) {
        solve_split(x, pool, ri);
        done = true;
      } else if (splan_ != nullptr) {
        std::mutex err_mu;
        std::exception_ptr err;
        const DepDrainStats ds =
            splan_->execute(pool, [&](std::uint32_t id) {
              try {
                return run_solve_task(splan_->task(id), x);
              } catch (...) {
                std::lock_guard guard(err_mu);
                if (!err) err = std::current_exception();
                return false;  // stop releasing successors
              }
            });
        if (err) std::rethrow_exception(err);
        ri.tasks += ds.executed;
        ri.parallel = true;
        ri.plan_reused = true;
        done = true;
      }
    }
  }
  if (!done) {
    std::uint64_t ops = 0;
    solve_seq(x, ops);
    ri.tasks += ops;
    ri.plan_reused = false;
  }
  ri.widen_hits = widen_hits_.load(std::memory_order_relaxed) - hits0;
  if (info != nullptr) *info = ri;
}

std::unique_ptr<NumericFactor::SolveScratch> NumericFactor::acquire_scratch(
    index_t rows, index_t cols) const {
  std::unique_ptr<SolveScratch> s;
  {
    std::lock_guard guard(scratch_mu_);
    if (!scratch_pool_.empty()) {
      s = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
    }
  }
  if (!s) s = std::make_unique<SolveScratch>();
  // reshape() keeps the vector capacity when it suffices, so repeated
  // same-shape solves reuse the allocation.
  s->m.reshape(rows, cols);
  s->track.resize(s->m.bytes());
  return s;
}

void NumericFactor::release_scratch(std::unique_ptr<SolveScratch> s) const {
  std::lock_guard guard(scratch_mu_);
  if (scratch_pool_.size() < 8) scratch_pool_.push_back(std::move(s));
}

void NumericFactor::solve(const real_t* b, real_t* x) const {
  solve(la::DConstView(b, sf_.n(), 1, sf_.n()), la::DView(x, sf_.n(), 1, sf_.n()));
}

void NumericFactor::solve(la::DConstView b, la::DView x,
                          SolveRunInfo* info) const {
  const index_t n = sf_.n();
  BLR_CHECK(b.rows == n && x.rows == n && b.cols == x.cols,
            "solve: right-hand-side shape mismatch");
  std::unique_ptr<SolveScratch> s = acquire_scratch(n, b.cols);
  la::DMatrix& xp = s->m;
  // Both permutation passes write column-contiguously (ascending row index
  // into column-major storage); the gathers are the scattered side.
  for (index_t r = 0; r < b.cols; ++r) {
    for (index_t i = 0; i < n; ++i)
      xp(i, r) = b(ord_.perm[static_cast<std::size_t>(i)], r);
  }
  solve_permuted(xp.view(), info);
  for (index_t r = 0; r < b.cols; ++r) {
    for (index_t j = 0; j < n; ++j)
      x(j, r) = xp(iperm_[static_cast<std::size_t>(j)], r);
  }
  release_scratch(std::move(s));
}

std::size_t NumericFactor::final_entries() const {
  std::size_t e = 0;
  for (index_t k = 0; k < sf_.num_cblks(); ++k) {
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    e += cd.diag.storage_entries();
    for (const auto& blk : cd.lpanel) e += blk.storage_entries();
    for (const auto& blk : cd.upanel) e += blk.storage_entries();
  }
  return e;
}

std::size_t NumericFactor::final_bytes() const {
  std::size_t b = 0;
  for (index_t k = 0; k < sf_.num_cblks(); ++k) {
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    b += cd.diag.storage_bytes();
    for (const auto& blk : cd.lpanel) b += blk.storage_bytes();
    for (const auto& blk : cd.upanel) b += blk.storage_bytes();
  }
  return b;
}

std::size_t NumericFactor::lowrank_bytes() const {
  std::size_t b = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel)
      if (blk.is_lowrank()) b += blk.storage_bytes();
    for (const auto& blk : cd.upanel)
      if (blk.is_lowrank()) b += blk.storage_bytes();
  }
  return b;
}

index_t NumericFactor::num_fp32_blocks() const {
  index_t n = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel)
      n += blk.precision() == lr::Precision::Fp32 ? 1 : 0;
    for (const auto& blk : cd.upanel)
      n += blk.precision() == lr::Precision::Fp32 ? 1 : 0;
  }
  return n;
}

index_t NumericFactor::num_lowrank_blocks() const {
  index_t n = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel) n += blk.is_lowrank() ? 1 : 0;
    for (const auto& blk : cd.upanel) n += blk.is_lowrank() ? 1 : 0;
  }
  return n;
}

index_t NumericFactor::num_dense_blocks() const {
  index_t n = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel) n += blk.is_lowrank() ? 0 : 1;
    for (const auto& blk : cd.upanel) n += blk.is_lowrank() ? 0 : 1;
  }
  return n;
}

double NumericFactor::average_rank() const {
  index_t count = 0;
  index_t total = 0;
  for (const auto& cd : data_) {
    for (const auto& blk : cd.lpanel) {
      if (blk.is_lowrank()) {
        ++count;
        total += blk.rank();
      }
    }
    for (const auto& blk : cd.upanel) {
      if (blk.is_lowrank()) {
        ++count;
        total += blk.rank();
      }
    }
  }
  return count > 0 ? static_cast<double>(total) / static_cast<double>(count) : 0.0;
}

double NumericFactor::dense_block_fraction() const {
  index_t comp = 0;
  index_t dense = 0;
  for (index_t k = 0; k < sf_.num_cblks(); ++k) {
    const symbolic::Cblk& c = sf_.cblk(k);
    const CblkData& cd = data_[static_cast<std::size_t>(k)];
    for (std::size_t idx = 0; idx < c.bloks.size(); ++idx) {
      if (!compressible(k, c.bloks[idx])) continue;
      if (idx < cd.lpanel.size()) {
        ++comp;
        if (!cd.lpanel[idx].is_lowrank()) ++dense;
      }
      if (idx < cd.upanel.size()) {
        ++comp;
        if (!cd.upanel[idx].is_lowrank()) ++dense;
      }
    }
  }
  return comp > 0 ? static_cast<double>(dense) / static_cast<double>(comp) : 0.0;
}

void NumericFactor::harvest_ranks(RankMemory& out) const {
  const auto record = [](const std::vector<lr::Tile>& panel,
                         std::vector<index_t>& ranks) {
    ranks.resize(panel.size());
    for (std::size_t i = 0; i < panel.size(); ++i) {
      ranks[i] = panel[i].is_lowrank() ? panel[i].rank() : RankMemory::kDense;
    }
  };
  out.cblks.resize(data_.size());
  for (std::size_t k = 0; k < data_.size(); ++k) {
    record(data_[k].lpanel, out.cblks[k].l);
    record(data_[k].upanel, out.cblks[k].u);
  }
  out.valid = true;
}

void NumericFactor::donate_buffers(lr::BufferPool& pool) {
  const auto donate_tile = [&pool](lr::Tile& t) {
    if (t.rows() == 0 || t.cols() == 0) return;
    if (t.is_lowrank()) {
      auto [u, v] = t.release_lowrank();
      pool.recycle(std::move(u));
      pool.recycle(std::move(v));
    } else {
      pool.recycle(t.release_dense());
    }
  };
  for (CblkData& cd : data_) {
    donate_tile(cd.diag);
    for (lr::Tile& t : cd.lpanel) donate_tile(t);
    for (lr::Tile& t : cd.upanel) donate_tile(t);
  }
}

} // namespace blr::core
