#pragma once

// Pure logic of the end-to-end benchmark, kept apart from the workloads so
// selftest.cpp can check it without running a solver: the percentile rule,
// span recording and self time, Chrome trace export, kernel → metric names,
// the accuracy gate and the result line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

// ---------------------------------------------------------------- statistics

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile p ∈ (0, 100] of `v` (0 when empty).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t k = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(k, v.size() - 1)];
}

/// The highest of p50 / p90 / p99 / p99.9 that leaves at least ten of `n`
/// samples beyond it — the highest percentile a run of n samples may
/// report. 0 when n < 20, where not even the median has ten samples above.
inline double reportable_percentile(std::size_t n) {
  constexpr double ladder[] = {99.9, 99.0, 90.0, 50.0};
  for (double p : ladder) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

// ------------------------------------------------------------------- tracing

using Clock = std::chrono::steady_clock;

/// One recorded span. Times are seconds since the tracer's epoch; `parent`
/// is the id of the enclosing span (-1 for a root); `request` is the
/// Session request id a `session.solve` span serves (-1 otherwise).
struct SpanRecord {
  std::string name;
  double start = 0;
  double end = 0;
  int id = -1;
  int parent = -1;
  long request = -1;
  int tid = 0;
};

/// In-memory span store, written out once at the end of the run. Records
/// only when enabled; ids are handed out either way so parent links stay
/// valid code in both modes.
class Tracer {
public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  int next_id() {
    std::lock_guard<std::mutex> lk(mu_);
    return next_id_++;
  }
  void record(SpanRecord r) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(r));
  }
  /// Copy of every span recorded so far.
  [[nodiscard]] std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  int next_id_ = 0;                // guarded by mu_
};

/// Small dense id of the calling thread, for the trace's tid column.
inline int thread_index() {
  static std::mutex mu;
  static int counter = 0;
  thread_local int id = [] {
    std::lock_guard<std::mutex> lk(mu);
    return counter++;
  }();
  return id;
}

/// A timed region around one call into a layer. It always measures its
/// duration — the untraced metrics come from the same spans — and records
/// itself in the tracer when tracing is on.
class Span {
public:
  Span(Tracer& t, std::string name, int parent = -1, long request = -1)
      : t_(t), rec_{std::move(name), t.now(), 0, t.next_id(), parent, request,
                    thread_index()} {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] int id() const { return rec_.id; }
  /// End the span (first call only) and return its duration in seconds.
  double stop() {
    if (!stopped_) {
      rec_.end = t_.now();
      stopped_ = true;
      t_.record(rec_);
    }
    return rec_.end - rec_.start;
  }

private:
  Tracer& t_;
  SpanRecord rec_;
  bool stopped_ = false;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap, e.g. the
/// concurrent `session.solve` spans of one burst). Keyed by span id.
inline std::map<int, double> self_times(const std::vector<SpanRecord>& spans) {
  std::map<int, std::vector<std::pair<double, double>>> kids;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start, s.end);
  }
  std::map<int, double> out;
  for (const SpanRecord& s : spans) {
    double covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      std::vector<std::pair<double, double>> iv;
      for (auto [a, b] : it->second) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      double lo = 0, hi = -1;
      for (auto [a, b] : iv) {
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    out[s.id] = (s.end - s.start) - covered;
  }
  return out;
}

/// Median self time (seconds) of the spans called `name`; 0 when none.
inline double median_self_time(const std::vector<SpanRecord>& spans,
                               const std::string& name) {
  const std::map<int, double> self = self_times(spans);
  std::vector<double> v;
  for (const SpanRecord& s : spans) {
    if (s.name == name) v.push_back(self.at(s.id));
  }
  return median(v);
}

inline std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o;
}

/// The spans as Chrome trace-event JSON (complete "X" events, µs), which
/// chrome://tracing and Perfetto open offline.
inline std::string chrome_trace_json(const std::vector<SpanRecord>& spans) {
  std::string o = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d",
                  i ? "," : "", json_escape(s.name).c_str(), s.tid,
                  s.start * 1e6, (s.end - s.start) * 1e6, s.id, s.parent);
    o += buf;
    if (s.request >= 0) {
      std::snprintf(buf, sizeof buf, ",\"request\":%ld", s.request);
      o += buf;
    }
    o += "}}";
  }
  o += "]}\n";
  return o;
}

// ------------------------------------------------------------- metric names

/// Metric-name charset: starts with a letter or digit, at most 64 of
/// letters, digits, '_', '.', '-'.
inline bool valid_metric_name(const std::string& s) {
  if (s.empty() || s.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(s[0])) return false;
  return std::all_of(s.begin(), s.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Kernel classes the per-layer table reports, in output order.
inline const std::vector<std::string>& kernel_classes() {
  static const std::vector<std::string> k = {
      "potrf",      "getrf",      "trsm_ge",    "trsm_lr",
      "gemm_ge_ge", "gemm_lr_ge", "gemm_ge_lr", "gemm_lr_lr",
      "lr2ge",      "lr2lr",      "compress",   "solve_trsm",
      "solve_gemm"};
  return k;
}

/// Metric class of a dispatch-table kernel name. gemm and the panel trsm
/// keep their operand representations (their cost depends on them):
/// "gemm[ge,ge]" → "gemm_ge_ge", "trsm[lr]" → "trsm_lr". Every other op is
/// one class whatever its operands: "lr2ge[lr]" → "lr2ge",
/// "solve_gemm[ge]" → "solve_gemm". fp32-stored low-rank operands ("lr32")
/// count with their fp64 class.
inline std::string kernel_class(const std::string& kernel) {
  const std::size_t lb = kernel.find('[');
  const std::string op = kernel.substr(0, lb);
  if ((op != "gemm" && op != "trsm") || lb == std::string::npos) return op;
  std::string out = op;
  std::string tag;
  for (std::size_t i = lb + 1; i < kernel.size(); ++i) {
    const char c = kernel[i];
    if (c == ',' || c == ']') {
      out += '_';
      out += tag == "lr32" ? "lr" : tag;
      tag.clear();
    } else {
      tag += c;
    }
  }
  return out;
}

// ------------------------------------------------------------ accuracy gate

/// Largest backward error ‖Ax − b‖/‖b‖ an unrefined direct solve may show:
/// 100·τ under a compressing strategy, 1e-10 for the dense factorization.
inline double direct_berr_bound(bool dense, double tau) {
  return dense ? 1e-10 : 100.0 * tau;
}

/// Counts attempted and failed operations. A call that throws and a result
/// that fails its accuracy check are both failures.
class Ledger {
public:
  void ok() { ++attempted_; }
  void fail(const std::string& what) {
    ++attempted_;
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  /// Record one accuracy check; true when `berr` is finite and ≤ `bound`.
  bool check(const std::string& what, double berr, double bound) {
    if (std::isfinite(berr) && berr <= bound) {
      ok();
      return true;
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, " backward error %.3e above bound %.1e",
                  berr, bound);
    fail(what + buf);
    return false;
  }
  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }
  [[nodiscard]] double error_rate() const {
    return attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0;
  }

private:
  long attempted_ = 0;
  long failed_ = 0;
};

// --------------------------------------------------------------- result line

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The one-line JSON result: correct, attempted, failed and the metrics,
/// each value with all its digits. Non-finite values are written as 0.
inline std::string result_json(const Ledger& l, const std::vector<Metric>& ms) {
  std::string o = "{\"correct\": ";
  o += l.failed() == 0 ? "true" : "false";
  o += ", \"attempted\": " + std::to_string(l.attempted());
  o += ", \"failed\": " + std::to_string(l.failed());
  o += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    o += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  o += "}}";
  return o;
}

} // namespace e2e
