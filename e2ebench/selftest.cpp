// Checks of the benchmark's own logic (bench_logic.hpp). Exit code 0 when
// every check passes; run with `python3 e2ebench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_logic.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what, int line) {
  if (!cond) {
    ++failures;
    std::fprintf(stderr, "selftest.cpp:%d: check failed: %s\n", line, what);
  }
}

#define EXPECT(c) expect((c), #c, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void percentile_rule() {
  EXPECT(e2e::reportable_percentile(0) == 0.0);
  EXPECT(e2e::reportable_percentile(19) == 0.0);
  EXPECT(e2e::reportable_percentile(20) == 50.0);
  EXPECT(e2e::reportable_percentile(99) == 50.0);
  EXPECT(e2e::reportable_percentile(100) == 90.0);   // exactly ten beyond p90
  EXPECT(e2e::reportable_percentile(999) == 90.0);
  EXPECT(e2e::reportable_percentile(1000) == 99.0);
  EXPECT(e2e::reportable_percentile(10000) == 99.9);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(e2e::percentile(v, 50) == 50.0);
  EXPECT(e2e::percentile(v, 90) == 90.0);
  EXPECT(e2e::percentile(v, 100) == 100.0);
  EXPECT(e2e::percentile({}, 90) == 0.0);
  EXPECT(e2e::median({3, 1, 2}) == 2.0);
  EXPECT(e2e::median({4, 1, 2, 3}) == 2.5);
}

e2e::SpanRecord span(const char* name, int id, int parent, double s, double e) {
  e2e::SpanRecord r;
  r.name = name;
  r.id = id;
  r.parent = parent;
  r.start = s;
  r.end = e;
  return r;
}

void self_time() {
  // step [0,10] with refactorize [1,3] and a burst [3,8] whose two
  // concurrent requests [3,6] and [4,7] overlap; the burst's own self time
  // is what its requests leave uncovered: [6..7] is covered, [7,8] not.
  const std::vector<e2e::SpanRecord> spans = {
      span("step", 0, -1, 0, 10),          span("refactorize", 1, 0, 1, 3),
      span("burst", 2, 0, 3, 8),           span("session.solve", 3, 2, 3, 6),
      span("session.solve", 4, 2, 4, 7),   span("late", 5, 0, 9, 12),
  };
  const auto self = e2e::self_times(spans);
  EXPECT(near(self.at(0), 10 - 2 - 5 - 1));  // child [9,12] clipped to [9,10]
  EXPECT(near(self.at(1), 2));
  EXPECT(near(self.at(2), 5 - 4));           // union of [3,6] and [4,7] is 4
  EXPECT(near(self.at(3), 3));
  EXPECT(near(e2e::median_self_time(spans, "session.solve"), 3));
  EXPECT(e2e::median_self_time(spans, "refine") == 0.0);

  // Recorded spans carry their parent and request id into the trace JSON.
  e2e::Tracer t(true);
  {
    e2e::Span root(t, "burst");
    e2e::Span child(t, "session.solve", root.id(), 42);
    EXPECT(child.stop() >= 0.0);
  }
  const auto rec = t.spans();
  EXPECT(rec.size() == 2 && rec[0].parent == rec[1].id && rec[0].request == 42);
  const std::string json = e2e::chrome_trace_json(rec);
  EXPECT(json.find("\"request\":42") != std::string::npos);
  EXPECT(json.find("\"ph\":\"X\"") != std::string::npos);
  e2e::Tracer off(false);
  { e2e::Span s(off, "analyze"); }
  EXPECT(off.spans().empty());
}

void kernel_names() {
  EXPECT(e2e::kernel_class("gemm[ge,ge]") == "gemm_ge_ge");
  EXPECT(e2e::kernel_class("gemm[lr,ge]") == "gemm_lr_ge");
  EXPECT(e2e::kernel_class("gemm[lr32,lr]") == "gemm_lr_lr");
  EXPECT(e2e::kernel_class("trsm[ge]") == "trsm_ge");
  EXPECT(e2e::kernel_class("trsm[lr32]") == "trsm_lr");
  EXPECT(e2e::kernel_class("potrf[ge]") == "potrf");
  EXPECT(e2e::kernel_class("getrf[ge]") == "getrf");
  EXPECT(e2e::kernel_class("lr2ge[lr]") == "lr2ge");
  EXPECT(e2e::kernel_class("lr2lr[ge]") == "lr2lr");
  EXPECT(e2e::kernel_class("compress[ge]") == "compress");
  EXPECT(e2e::kernel_class("solve_trsm[ge]") == "solve_trsm");
  EXPECT(e2e::kernel_class("solve_gemm[lr32]") == "solve_gemm");

  EXPECT(e2e::valid_metric_name("kernel.gemm_ge_ge.bytes_per_call"));
  EXPECT(e2e::valid_metric_name("9lives-1.x"));
  EXPECT(!e2e::valid_metric_name("kernel.gemm[ge,ge].calls"));
  EXPECT(!e2e::valid_metric_name("_leading"));
  EXPECT(!e2e::valid_metric_name(""));
  EXPECT(!e2e::valid_metric_name(std::string(65, 'a')));
  for (const std::string& k : e2e::kernel_classes()) {
    for (const char* s : {".calls", ".gb", ".s", ".gb_per_s", ".bytes_per_call"}) {
      EXPECT(e2e::valid_metric_name("kernel." + k + s));
    }
  }
}

void accuracy_gate() {
  EXPECT(e2e::direct_berr_bound(false, 1e-4) == 100 * 1e-4);
  EXPECT(e2e::direct_berr_bound(true, 1e-4) == 1e-10);

  e2e::Ledger led;
  EXPECT(led.check("within", 3.9e-3, e2e::direct_berr_bound(false, 1e-4)));
  EXPECT(led.failed() == 0 && led.attempted() == 1);
  EXPECT(!led.check("above", 2e-10, e2e::direct_berr_bound(true, 1e-4)));
  EXPECT(!led.check("nan", std::nan(""), 1.0));
  EXPECT(led.failed() == 2 && led.attempted() == 3);
  EXPECT(near(led.error_rate(), 2.0 / 3.0));
  const std::string line = e2e::result_json(led, {{"setup_s", 0.1, "s"}});
  EXPECT(line.rfind("{\"correct\": false, \"attempted\": 3, \"failed\": 2", 0) == 0);
  EXPECT(line.find("\"setup_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}") !=
         std::string::npos);
}

} // namespace

int main() {
  percentile_rule();
  self_time();
  kernel_names();
  accuracy_gate();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("e2ebench selftest: all checks passed\n");
  return 0;
}
