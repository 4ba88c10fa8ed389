// Unit tests of the benchmark's own helpers (order statistics, the
// supported tail percentile, the fixed-size reservoir, offered rate,
// metric names, span self time).  Exits non-zero on the first failure.
// Run it through `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "opwat/portal/workload.hpp"
#include "opwat/serve/catalog.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "FAIL: " << what << "\n";
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void test_quantiles() {
  using perfbench::quantile;
  std::vector<double> v{5, 1, 4, 2, 3};
  expect(quantile(v, 0.5) == 3, "median of 1..5 is 3");
  expect(quantile(v, 0.0) == 1 && quantile(v, 1.0) == 5, "q0/q1 are min/max");
  expect(quantile(v, 0.25) == 2 && quantile(v, 0.75) == 4, "quartiles of 1..5 are 2 and 4");
  std::vector<double> even{1, 2, 3, 4};
  expect(quantile(even, 0.5) == 2.5, "median of 1..4 interpolates to 2.5");
  expect(near(quantile(even, 0.99), 3.97, 1e-12), "p99 of 1..4 interpolates to 3.97");
  std::vector<double> empty;
  expect(std::isnan(quantile(empty, 0.5)), "quantile of an empty sample is NaN");
}

void test_windows() {
  // Three whole 1 s windows of 100, 200 and 300 samples; the partial
  // fourth window and a negative time are dropped.
  std::vector<double> t, v;
  for (int w = 0; w < 3; ++w)
    for (int i = 0; i < 100 * (w + 1); ++i) {
      t.push_back(w + i / (100.0 * (w + 1)));
      v.push_back(w * 1000 + i);
    }
  t.push_back(3.2);
  v.push_back(1e9);
  t.push_back(-0.1);
  v.push_back(1e9);
  const auto ws = perfbench::by_window(t, v, 1.0, 3.5);
  expect(ws.count == std::vector<double>{100, 200, 300}, "per-window counts");
  expect(ws.p50.size() == 3 && ws.p50[0] == 49.5 && ws.p50[1] == 1099.5, "per-window medians");
  expect(ws.p99.size() == 3 && near(ws.p99[2], 2000 + 0.99 * 299, 1e-9), "per-window p99");
  expect(perfbench::median(ws.count) == 200, "median window count");
}

void test_reservoir() {
  // Below its capacity a reservoir keeps every value, in order.
  perfbench::reservoir small{8};
  for (int i = 0; i < 5; ++i) small.add(i);
  expect(small.kept() == std::vector<double>{0, 1, 2, 3, 4}, "under capacity keeps all");
  expect(small.seen() == 5 && small.sum() == 10, "seen and sum");
  // Past it, the storage never grows and the sample stays uniform: the
  // median of 0..99999 sampled 4096 at a time lands near 50000.
  perfbench::reservoir r{4096};
  const auto* storage = r.kept().data();
  for (int i = 0; i < 100000; ++i) r.add(i);
  expect(r.kept().size() == 4096 && r.kept().data() == storage, "fixed storage past capacity");
  expect(r.seen() == 100000, "seen counts every value");
  expect(near(perfbench::median(r.kept()), 50000, 3000), "uniform sample median");
  // Deterministic, and clear() keeps the storage.
  perfbench::reservoir again{4096};
  for (int i = 0; i < 100000; ++i) again.add(i);
  expect(again.kept() == r.kept(), "same stream, same sample");
  r.clear();
  expect(r.kept().empty() && r.seen() == 0 && r.sum() == 0 && r.kept().capacity() == 4096,
         "clear keeps the storage");
}

void test_supported_percentile() {
  using perfbench::highest_supported_quantile;
  expect(highest_supported_quantile(19) == 0.0, "19 samples support no percentile");
  expect(highest_supported_quantile(20) == 0.5, "20 samples support the median");
  expect(highest_supported_quantile(99) == 0.5, "99 samples: p90 has 9.9 beyond, so the median");
  expect(highest_supported_quantile(100) == 0.9, "100 samples support p90");
  expect(highest_supported_quantile(999) == 0.9, "999 samples: p99 has 9.99 beyond");
  expect(highest_supported_quantile(1000) == 0.99, "1000 samples support p99");
  expect(highest_supported_quantile(10000) == 0.999, "10k samples support p99.9");
  expect(highest_supported_quantile(100000) == 0.9999, "100k samples support p99.99");
}

void test_offered_rate() {
  using perfbench::offered_qps;
  std::vector<double> due;
  for (int i = 1; i <= 1000; ++i) due.push_back(i * 0.001);  // every 1 ms for 1 s
  expect(near(offered_qps(due, 1.0), 1000.0, 1e-9), "1 ms gaps over 1 s offer 1000 req/s");
  expect(near(offered_qps(due, 0.5), 1000.0, 1e-9), "half the window, half the requests");
  expect(offered_qps(due, 0.0) == 0.0, "an empty window offers nothing");

  // The portal workload's own schedule: a 40 k req/s target with sigma
  // 0.7 bursts offers the log-normal mean, ~31.3 k req/s, not 40 k.
  const opwat::serve::catalog empty;
  opwat::portal::workload_config cfg;
  cfg.seed = 3;
  cfg.target_qps = 40000.0;
  cfg.burstiness = 0.7;
  const opwat::portal::workload wl{empty, cfg};
  std::vector<double> schedule;
  double t = 0;
  for (std::uint64_t i = 0; i < 2'000'000; ++i) {
    t += wl.gap_s(i);
    schedule.push_back(t);
  }
  const double offered = offered_qps(schedule, t);
  const double expected = perfbench::lognormal_burst_mean_qps(40000.0, 0.7);
  expect(near(expected, 31308.0, 5.0), "log-normal burst mean of 40k at sigma 0.7 is ~31.3k");
  expect(near(offered, expected, 0.03 * expected),
         "workload schedule offers the burst mean (" + std::to_string(offered) + " vs " +
             std::to_string(expected) + ")");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  for (const char* ok : {"qps", "p99_us", "serve.exec.rows_scanned", "infer.rtt-colo_ms",
                         "9lives", "a"})
    expect(valid_metric_name(ok), std::string{"valid name "} + ok);
  for (const char* bad : {"", "_x", ".x", "-x", "p99 us", "lat/ms", "µs", "a\"b"})
    expect(!valid_metric_name(bad), std::string{"invalid name '"} + bad + "'");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters is allowed");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters is too long");
}

void test_self_time() {
  perfbench::tracer off{false};
  { auto s = off.open("x"); }
  expect(off.spans().empty(), "a disabled tracer records nothing");

  perfbench::tracer tr{true};
  {
    auto root = tr.open("study");
    { auto a = tr.open("world.generate"); }
    {
      auto b = tr.open("infer.run");
      { auto c = tr.open("inner"); }
    }
  }
  const auto& sp = tr.spans();
  expect(sp.size() == 4, "four spans recorded");
  expect(sp[0].parent == -1 && sp[1].parent == 0 && sp[2].parent == 0 && sp[3].parent == 2,
         "parents follow nesting");
  const auto self = tr.self_ns();
  const auto dur = [&](std::size_t i) { return sp[i].end_ns - sp[i].start_ns; };
  expect(self[0] == dur(0) - dur(1) - dur(2), "root self time excludes direct children");
  expect(self[2] == dur(2) - dur(3), "nested self time excludes its child");
  std::int64_t total = 0;
  for (const auto s : self) total += s;
  expect(total == dur(0), "self times sum to the root's duration");
  const auto by_root = tr.self_by_root("study");
  expect(by_root.size() == 1 && by_root[0].at("inner") == self[3], "self time grouped per root");
  expect(tr.self_by_root("other").empty(), "no roots of another name");
}

}  // namespace

int main() {
  test_quantiles();
  test_supported_percentile();
  test_windows();
  test_reservoir();
  test_offered_rate();
  test_metric_names();
  test_self_time();
  if (failures > 0) {
    std::cerr << failures << " benchmark self-test failure(s)\n";
    return 1;
  }
  std::cout << "benchmark self-test passed\n";
  return 0;
}
