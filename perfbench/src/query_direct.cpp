// Workload `query_direct`: one thread replays the portal request stream
// (the default-mix portal::workload stream) straight through
// serve::query / serve::diff_epochs on the catalog opwatd serves, with no
// server — the in-process analysis path, and the one workload where scan
// execution dominates.  Each request takes a shared_catalog snapshot
// first, as a concurrent in-process reader must.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iostream>

#include "bench.hpp"
#include "opwat/portal/workload.hpp"
#include "opwat/util/rng.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace opwat;

namespace {

/// Publishes timed for publish_ms: in the set-up, then a few after every
/// replay window so the samples span the run.  The replay clock stops
/// while they run.
constexpr std::size_t k_setup_publishes = 20;
constexpr std::size_t k_publishes_per_window = 2;
/// Latency and throughput are taken per window, then the median window.
constexpr double k_window_s = 1.0;
/// Requests generated up front and replayed cyclically.
constexpr std::size_t k_stream = std::size_t{1} << 16;
/// Stream prefix checked against the reference engine and digested.
constexpr std::size_t k_checked = 20000;
/// Requests of the traced replay (bounds the span dump).
constexpr std::size_t k_traced_requests = 100000;

/// Latency samples kept per window: about twice what a window holds at
/// today's rate (~35 k requests), in storage reserved once, so the
/// replay's own memory does not grow with the program's speed.
constexpr std::size_t k_window_samples = std::size_t{1} << 16;

/// Per whole window of the replay.
struct window_stats {
  std::vector<double> qps;     ///< requests completed / window length
  std::vector<double> p50_ns;  ///< per-request latency quantiles
  std::vector<double> p99_ns;
  std::vector<double> kept;    ///< latency samples the quantiles rest on
};

struct replay_result {
  window_stats windows;
  std::uint64_t requests = 0;
  double sum_ns = 0;  ///< per request: snapshot + execution, summed
  double elapsed_s = 0;
  std::uint64_t not_ok = 0;
  std::uint64_t digest = 0;  ///< over the first k_checked responses
  exec_totals scans;
  std::vector<portal::response> checked;  ///< the first k_checked responses

  [[nodiscard]] double mean_ns() const {
    return requests == 0 ? 0.0 : sum_ns / static_cast<double>(requests);
  }
};

replay_result replay(const std::vector<portal::request>& stream,
                     const serve::shared_catalog& shared, double seconds, std::size_t max_requests,
                     const std::function<void()>& between_windows, tracer& tr) {
  replay_result r;
  reservoir window{k_window_samples};
  std::vector<double> sorted;
  sorted.reserve(k_window_samples);
  auto t0 = now_ns();  // moved forward by every pause, so pauses are not timed
  double window_start_s = 0;
  // Closes the window that ends at t (seconds since t0).
  const auto close_window = [&](double t) {
    auto& w = r.windows;
    w.qps.push_back(static_cast<double>(window.seen()) / (t - window_start_s));
    sorted.assign(window.kept().begin(), window.kept().end());
    w.kept.push_back(static_cast<double>(sorted.size()));
    w.p50_ns.push_back(quantile(sorted, 0.5));
    w.p99_ns.push_back(quantile(sorted, 0.99));
    window.clear();
  };
  for (std::size_t i = 0;; ++i) {
    if (i == max_requests) break;
    if (i % 64 == 0) {
      const double t = since_s(t0);
      const bool window_done = t >= window_start_s + k_window_s;
      if (window_done) close_window(t);
      if (i >= k_checked && t >= seconds) break;
      if (window_done) {
        const auto pause0 = now_ns();
        between_windows();
        t0 += now_ns() - pause0;
        window_start_s = t;
      }
    }
    const auto& req = stream[i % stream.size()];
    serve::exec::stats st;
    portal::response resp;
    const auto q0 = now_ns();
    {
      auto root = tr.open("request");
      std::shared_ptr<const serve::catalog> snap;
      {
        auto sp = tr.open("serve.snapshot");
        snap = shared.snapshot();
      }
      auto sp = tr.open(exec_span(req.op));
      resp = answer(req, *snap, &st);
    }
    const auto ns = static_cast<double>(now_ns() - q0);
    window.add(ns);
    ++r.requests;
    r.sum_ns += ns;
    if (resp.status != portal::portal_errc::ok) ++r.not_ok;
    r.scans.add(st, req, resp);
    if (i < k_checked) {
      r.digest = util::hash_combine(r.digest, util::stable_hash(canonical_bytes(resp)));
      r.checked.push_back(std::move(resp));
    }
  }
  r.elapsed_s = since_s(t0);
  return r;
}

}  // namespace

int run_query_direct(const options& opt, report& rep) {
  tracer tr{opt.trace};

  // ---- set-up: the served catalog and the request stream ----
  fixture fx;
  const double build_s = build_fixture(fx, opt, served_config, tr, rep);
  const auto t_setup = now_ns();
  serve::shared_catalog shared;
  const auto served = [&](std::uint64_t v) { return shared.version() >= v; };
  auto pubs = setup_publishes(fx, shared, served, tr, k_setup_publishes);
  const auto wl = traffic(*shared.snapshot(), opt.seed);
  std::vector<portal::request> stream;
  stream.reserve(k_stream);
  for (std::size_t i = 0; i < k_stream; ++i) stream.push_back(wl.nth(i));
  const double setup_s = build_s + since_s(t_setup);

  // ---- oracle pass (also warms the caches): the vectorized engine
  // answers the checked prefix exactly as the reference evaluator ----
  std::uint64_t oracle_digest = 0;
  {
    const auto snap = shared.snapshot();
    for (std::size_t i = 0; i < k_checked; ++i) {
      const auto got = answer(stream[i], *snap);
      const auto want = answer(stream[i], *snap, nullptr, serve::exec::mode::reference);
      const auto bytes = canonical_bytes(got);
      rep.check(bytes == canonical_bytes(want),
                "request " + std::to_string(i) + " differs from the reference evaluator");
      oracle_digest = util::hash_combine(oracle_digest, util::stable_hash(bytes));
    }
  }

  const auto host0 = read_host_cpu();
  tracer off{false};
  // The traced run splits its time: a quarter untraced and a quarter
  // traced direct replay (the overhead pair), half the served path.
  const auto publish = [&] {
    for (std::size_t k = 0; k < k_publishes_per_window; ++k)
      pubs.push_back(
          publish_once(fx.prefix, fx.full, fx.store_path + ".publish", shared, served, tr));
  };
  const auto base =
      replay(stream, shared, opt.trace ? opt.seconds / 4 : opt.seconds, SIZE_MAX, publish, off);
  const auto traced = opt.trace ? replay(stream, shared, opt.seconds / 4, k_traced_requests,
                                         publish, tr)
                                : replay_result{};
  const auto host1 = read_host_cpu();

  rep.add_attempted(base.requests + traced.requests);
  rep.add_failed(base.not_ok + traced.not_ok);
  rep.check(base.not_ok + traced.not_ok == 0, "some replayed requests were not answered ok");
  rep.check(base.digest == oracle_digest, "the replay's result digest differs from the oracle pass");
  if (opt.trace) rep.check(traced.digest == oracle_digest, "the traced replay's digest differs");
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, base.digest);
  const auto& win = base.windows;
  const double kept = median(win.kept);
  std::cout << "query_direct: " << base.requests << " requests in " << base.elapsed_s << " s; "
            << win.qps.size() << " windows of " << k_window_s << " s, median "
            << median(win.qps) << " req/s, p50 " << median(win.p50_ns) / 1000.0 << " us, p99 "
            << median(win.p99_ns) / 1000.0 << " us over a median " << kept
            << " latency samples per window (highest supported percentile p"
            << highest_supported_quantile(static_cast<std::size_t>(kept)) * 100.0
            << "); result digest " << hex << " (first " << k_checked << " responses)\n";

  if (!opt.trace) {
    e2e_values v;
    v.setup_s = setup_s;
    v.peak_rss_mb = peak_rss_mb();
    v.study_s = median(fx.study_s);
    v.store_bytes_per_row = static_cast<double>(fx.file_bytes) / static_cast<double>(fx.rows);
    v.qps = median(win.qps);
    v.p50_us = median(win.p50_ns) / 1000.0;
    v.p99_us = median(win.p99_ns) / 1000.0;
    v.ok_frac = 1.0 - static_cast<double>(rep.failed()) / static_cast<double>(rep.attempted());
    v.publish_ms = median(pubs);
    emit_e2e(rep, v);
    return 0;
  }

  layer_values lv;
  tracer pub_tr{true};
  measure_served(shared, fx, opt.seed, opt.seconds / 2, pub_tr, rep, lv);
  lv["serve.ingest_ms"] = median_span_ns(tr, "serve.ingest") / 1e6;
  lv["serve.save_ms"] = median_span_ns(tr, "serve.save") / 1e6;
  lv["serve.load_ms"] = median_span_ns(tr, "serve.load") / 1e6;
  lv["serve.file_bytes"] = static_cast<double>(fx.file_bytes);
  lv["serve.snapshot_ns"] = median_span_ns(tr, "serve.snapshot");
  fill_exec_spans(tr, lv);
  traced.scans.fill(lv);
  const std::vector<portal::request> checked_reqs(stream.begin(),
                                                  stream.begin() + static_cast<std::ptrdiff_t>(k_checked));
  const auto proto = time_protocol(checked_reqs, traced.checked);
  lv["portal.protocol.encode_ns"] = proto.encode_ns;
  lv["portal.protocol.decode_ns"] = proto.decode_ns;
  lv["trace.overhead_frac"] = traced.mean_ns() / base.mean_ns() - 1.0;
  add_host_layers(lv, host0, host1);
  std::cout << "traced replay: " << traced.requests << " requests, mean "
            << traced.mean_ns() / 1000.0 << " us vs untraced " << base.mean_ns() / 1000.0
            << " us\n";
  write_spans(opt, {&tr, &pub_tr});
  emit_layers(rep, lv);
  return 0;
}

}  // namespace perfbench
