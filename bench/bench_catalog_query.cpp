// Catalog serving throughput: ingest cost and per-query-shape latency
// for the §9 portal query shapes over the serve catalog, executed on
// the vectorized engine (opwat/serve/exec.hpp) with the retained
// row-at-a-time reference evaluator timed alongside as the speedup
// baseline.
//
// Measures, on the shared scenario (OPWAT_BENCH_SCALE=tiny swaps in the
// small smoke scenario; the default is the full paper-scale one):
//   - ingest: pipeline_result -> columnar epoch + indexes (ms, rows/sec);
//   - indexed counts: per-(IXP, class) lookups across the whole scope;
//   - group-by: remote members per evidence step (dense accumulation);
//   - ECDF: RTT distribution of remote members;
//   - filtered page: metro + class filter, nth_element partial top-k;
//   - member: ASN point lookup through the permutation index;
//   - RTT band: selection-vector scan with zone-map block skipping;
//   - diff: sort-merge cross-epoch join.
//
// For every shape it reports queries/sec, p50/p99 latency (via the
// util/stats percentile helpers), rows scanned vs rows skipped, and the
// speedup over the reference engine.  The JSON goes to stdout and to
// $OPWAT_BENCH_JSON when set.  When $OPWAT_BENCH_RESULTS_PREFIX is set,
// the full query RESULTS (not timings) of both engines are written to
// <prefix>.vectorized.json and <prefix>.reference.json — the CI bench
// smoke step diffs them and fails on any byte difference.  The bench
// itself also exits non-zero if the two engines ever disagree.
#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "opwat/serve/query.hpp"
#include "opwat/util/json.hpp"
#include "opwat/util/stats.hpp"

namespace {

using namespace opwat;
using infer::peering_class;
using serve::exec::mode;

constexpr int k_ingest_repetitions = 5;

serve::catalog make_two_epoch_catalog() {
  const auto& s = benchx::shared_scenario();
  serve::catalog cat;
  cat.ingest(s.w, s.view, benchx::shared_pipeline(), "A");
  // A perturbed second epoch (different pipeline seed) so diff queries
  // have real appeared/reclassified work to do.
  auto cfg = s.cfg.pipeline;
  cfg.seed ^= 0x9e3779b97f4a7c15ull;
  cat.ingest(s.w, s.view, s.run_inference(cfg), "B");
  return cat;
}

const serve::catalog& two_epoch_catalog() {
  static const serve::catalog cat = make_two_epoch_catalog();
  return cat;
}

/// Stable filter targets for the parameterized shapes.
struct bench_ctx {
  /// Busiest *mapped* metro of epoch A's remote members ("" when every
  /// remote member is unmapped — "(unmapped)" is a display bucket, not
  /// a filterable metro name).
  std::string metro;
  /// Most frequent member ASN of epoch A (smallest on ties).
  net::asn hot_asn{};
  /// Interquartile-ish RTT band of epoch A's measured rows — selective
  /// enough that zone maps skip blocks, wide enough to match rows.
  double rtt_lo = 0.0;
  double rtt_hi = 0.0;
};

bench_ctx make_ctx(const serve::catalog& cat) {
  bench_ctx ctx;
  for (const auto& g : serve::query(cat)
                           .epoch("A")
                           .cls(peering_class::remote)
                           .by_metro()
                           .group_counts())
    if (cat.metro_by_name(g.key)) {
      ctx.metro = g.key;
      break;
    }

  const auto& ep = cat.of("A");
  std::unordered_map<std::uint32_t, std::size_t> freq;
  for (const auto a : ep.asn_col()) ++freq[a];
  std::size_t best = 0;
  std::uint32_t best_asn = 0;
  // opwat-lint: allow(unordered-iter): max-reduction with a total (count,
  // asn) tie-break picks the same winner in any visit order
  for (const auto& [a, n] : freq)
    if (n > best || (n == best && a < best_asn)) {
      best = n;
      best_asn = a;
    }
  ctx.hot_asn = net::asn{best_asn};

  util::ecdf rtts;
  for (const auto r : ep.rtt_col())
    if (!std::isnan(r)) rtts.add(r);
  if (!rtts.empty()) {
    ctx.rtt_lo = rtts.quantile(0.25);
    ctx.rtt_hi = rtts.quantile(0.5);
  }
  return ctx;
}

double elapsed_ms(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

// --- query shapes ------------------------------------------------------------

std::size_t run_indexed_counts(const serve::catalog& c, const bench_ctx&, mode,
                               serve::exec::stats*) {
  std::size_t n = 0;
  const auto& ep = c.of("A");
  for (const auto& b : ep.blocks()) {
    n += ep.count(b.ixp, peering_class::remote);
    n += ep.count(b.ixp, peering_class::local);
  }
  return n;
}

std::size_t run_group_by_step(const serve::catalog& c, const bench_ctx&, mode m,
                              serve::exec::stats* st) {
  return serve::query(c)
      .engine(m)
      .collect_stats(st)
      .epoch("A")
      .cls(peering_class::remote)
      .by_step()
      .group_counts()
      .size();
}

std::size_t run_rtt_ecdf(const serve::catalog& c, const bench_ctx&, mode m,
                         serve::exec::stats* st) {
  return serve::query(c)
      .engine(m)
      .collect_stats(st)
      .epoch("A")
      .cls(peering_class::remote)
      .rtt_ecdf(20)
      .size();
}

std::size_t run_metro_page(const serve::catalog& c, const bench_ctx& ctx, mode m,
                           serve::exec::stats* st) {
  auto qb = serve::query(c).engine(m).collect_stats(st).epoch("A").cls(
      peering_class::remote);
  if (!ctx.metro.empty()) qb.metro(ctx.metro);
  return qb.sort_by_rtt().page(0, 25).rows().size();
}

std::size_t run_member_rows(const serve::catalog& c, const bench_ctx& ctx, mode m,
                            serve::exec::stats* st) {
  return serve::query(c)
      .engine(m)
      .collect_stats(st)
      .epoch("A")
      .member(ctx.hot_asn)
      .rows()
      .size();
}

std::size_t run_rtt_band_count(const serve::catalog& c, const bench_ctx& ctx, mode m,
                               serve::exec::stats* st) {
  return serve::query(c)
      .engine(m)
      .collect_stats(st)
      .epoch("A")
      .rtt_between(ctx.rtt_lo, ctx.rtt_hi)
      .count();
}

std::size_t run_diff(const serve::catalog& c, const bench_ctx&, mode m,
                     serve::exec::stats*) {
  const auto d = m == mode::reference ? serve::diff_epochs_reference(c, "A", "B")
                                      : serve::diff_epochs(c, "A", "B");
  return d.appeared.size() + d.disappeared.size() + d.reclassified.size();
}

struct workload {
  const char* name;
  std::size_t (*run)(const serve::catalog&, const bench_ctx&, mode,
                     serve::exec::stats*);
};

constexpr workload k_workloads[] = {
    {"indexed_count_per_ixp_class", run_indexed_counts},
    {"group_remote_by_step", run_group_by_step},
    {"rtt_ecdf_remote", run_rtt_ecdf},
    {"metro_filter_page", run_metro_page},
    {"member_rows", run_member_rows},
    {"rtt_band_count", run_rtt_band_count},
    {"diff_epochs", run_diff},
};

// --- result digests (the CI engine-equivalence gate) -------------------------

void write_rows(util::json_writer& w, const serve::catalog& c,
                const std::vector<serve::iface_row>& rows) {
  w.begin_array();
  for (const auto& r : rows) {
    w.begin_object();
    w.key("ip").value(r.ip.to_string());
    w.key("ixp").value(static_cast<std::uint64_t>(r.ixp));
    w.key("asn").value(static_cast<std::uint64_t>(r.asn.value));
    w.key("class").value(std::string{to_string(r.cls)});
    w.key("step").value(std::string{to_string(r.step)});
    if (!std::isnan(r.rtt_min_ms)) w.key("rtt_min_ms").value(r.rtt_min_ms);
    w.key("feasible").value(static_cast<std::int64_t>(r.feasible_facilities));
    if (!std::isnan(r.port_gbps)) w.key("port_gbps").value(r.port_gbps);
    w.key("metro").value(std::string{c.metro_name(r.metro)});
    w.end_object();
  }
  w.end_array();
}

void write_groups(util::json_writer& w, const std::vector<serve::group_count>& gs) {
  w.begin_array();
  for (const auto& g : gs) {
    w.begin_object();
    w.key("key").value(g.key);
    w.key("count").value(static_cast<std::uint64_t>(g.count));
    w.end_object();
  }
  w.end_array();
}

/// Serializes every benchmarked query's full RESULTS (no timings) for
/// one engine.  Byte-equality of the two engines' digests is the
/// correctness gate.
std::string result_digest(const serve::catalog& c, const bench_ctx& ctx, mode m) {
  // No engine label inside the document: the two digests must be
  // byte-identical, so a plain `diff` works in CI (the filename carries
  // the engine).
  util::json_writer w;
  w.begin_object();

  w.key("indexed_counts").begin_array();
  {
    const auto& ep = c.of("A");
    for (const auto& b : ep.blocks()) {
      w.begin_object();
      w.key("ixp").value(static_cast<std::uint64_t>(b.ixp));
      w.key("remote").value(
          static_cast<std::uint64_t>(ep.count(b.ixp, peering_class::remote)));
      w.key("local").value(
          static_cast<std::uint64_t>(ep.count(b.ixp, peering_class::local)));
      w.end_object();
    }
  }
  w.end_array();

  w.key("group_remote_by_step");
  write_groups(w, serve::query(c).engine(m).epoch("A").cls(peering_class::remote)
                   .by_step()
                   .group_counts());

  w.key("rtt_ecdf_remote").begin_array();
  for (const auto& p :
       serve::query(c).engine(m).epoch("A").cls(peering_class::remote).rtt_ecdf(20)) {
    w.begin_object();
    w.key("upper_ms").value(p.upper_ms);
    w.key("cum").value(static_cast<std::uint64_t>(p.cum_count));
    w.key("fraction").value(p.fraction);
    w.end_object();
  }
  w.end_array();

  {
    auto qb = serve::query(c).engine(m).epoch("A").cls(peering_class::remote);
    if (!ctx.metro.empty()) qb.metro(ctx.metro);
    w.key("metro_filter_page");
    write_rows(w, c, qb.sort_by_rtt().page(0, 25).rows());
  }

  w.key("member_rows");
  write_rows(w, c, serve::query(c).engine(m).epoch("A").member(ctx.hot_asn).rows());

  {
    auto qb =
        serve::query(c).engine(m).epoch("A").rtt_between(ctx.rtt_lo, ctx.rtt_hi);
    w.key("rtt_band_count").value(static_cast<std::uint64_t>(qb.count()));
    w.key("rtt_band_rows");
    write_rows(w, c, qb.rows());
  }

  {
    const auto d = m == mode::reference ? serve::diff_epochs_reference(c, "A", "B")
                                        : serve::diff_epochs(c, "A", "B");
    w.key("diff").begin_object();
    w.key("appeared");
    write_rows(w, c, d.appeared);
    w.key("disappeared");
    write_rows(w, c, d.disappeared);
    w.key("reclassified").begin_array();
    for (const auto& r : d.reclassified) {
      w.begin_object();
      w.key("before");
      write_rows(w, c, {r.before});
      w.key("after");
      write_rows(w, c, {r.after});
      w.end_object();
    }
    w.end_array();
    w.key("appeared_by_class").begin_array();
    for (const auto n : d.appeared_by_class)
      w.value(static_cast<std::uint64_t>(n));
    w.end_array();
    w.end_object();
  }

  w.end_object();
  return w.str();
}

// --- driver ------------------------------------------------------------------

void print_catalog_query() {
  const auto& s = benchx::shared_scenario();
  const auto& pr = benchx::shared_pipeline();

  // --- ingest ---------------------------------------------------------------
  double ingest_best_ms = std::numeric_limits<double>::infinity();
  std::size_t rows = 0;
  for (int rep = 0; rep < k_ingest_repetitions; ++rep) {
    serve::catalog fresh;
    const auto t0 = std::chrono::steady_clock::now();
    fresh.ingest(s.w, s.view, pr, "ingest");
    const double ms = elapsed_ms(t0);
    ingest_best_ms = std::min(ingest_best_ms, ms);
    rows = fresh.of("ingest").rows();
    benchmark::DoNotOptimize(&fresh);
  }

  const auto& cat = two_epoch_catalog();
  const auto ctx = make_ctx(cat);

  // --- engine-equivalence gate ----------------------------------------------
  const auto digest_vec = result_digest(cat, ctx, mode::vectorized);
  const auto digest_ref = result_digest(cat, ctx, mode::reference);
  if (const char* prefix = std::getenv("OPWAT_BENCH_RESULTS_PREFIX")) {
    std::ofstream{std::string{prefix} + ".vectorized.json"} << digest_vec << "\n";
    std::ofstream{std::string{prefix} + ".reference.json"} << digest_ref << "\n";
  }
  if (digest_vec != digest_ref) {
    std::cerr << "FATAL: vectorized engine results differ from the reference "
                 "evaluator\n";
    std::exit(1);
  }

  // --- query workloads ------------------------------------------------------
  util::json_writer w;
  w.begin_object();
  w.key("bench").value("catalog_query");
  const char* scale = std::getenv("OPWAT_BENCH_SCALE");
  w.key("scale").value(scale && std::string_view{scale} == "tiny" ? "tiny" : "paper");
  w.key("rows_per_epoch").value(static_cast<std::uint64_t>(rows));
  w.key("ixps").value(static_cast<std::uint64_t>(cat.of("A").blocks().size()));
  w.key("engine").value("vectorized");
  w.key("results_identical_to_reference").value(true);
  w.key("ingest_ms").value(ingest_best_ms);
  w.key("ingest_rows_per_sec")
      .value(ingest_best_ms > 0.0
                 ? static_cast<double>(rows) / (ingest_best_ms / 1e3)
                 : 0.0);
  w.key("queries").begin_array();

  util::text_table t{"Catalog serving throughput (vectorized engine)"};
  t.header({"query", "iters", "queries/sec", "p50 ms", "p99 ms", "speedup", "scanned",
            "skipped"});
  t.row({"(ingest)", std::to_string(k_ingest_repetitions),
         util::fmt_double(ingest_best_ms > 0.0 ? 1e3 / ingest_best_ms : 0.0, 1),
         util::fmt_double(ingest_best_ms, 2) + " (best)", "-", "-", "-", "-"});

  for (const auto& wl : k_workloads) {
    // Calibrate the iteration count so each workload runs ~200 ms.
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t sink = wl.run(cat, ctx, mode::vectorized, nullptr);
    const double once_ms = std::max(1e-4, elapsed_ms(t0));
    const auto iters = static_cast<std::size_t>(
        std::clamp(200.0 / once_ms, 1.0, 100000.0));

    // Clean throughput loop (no per-iteration clocks, so the timer
    // overhead never pollutes the qps or the speedup ratio).
    const auto t1 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i)
      sink += wl.run(cat, ctx, mode::vectorized, nullptr);
    const double total_ms = std::max(1e-4, elapsed_ms(t1));
    const double qps = static_cast<double>(iters) / (total_ms / 1e3);

    // Separate capped sampling loop for the latency percentiles.  Each
    // sample brackets a batch of runs sized so the batch takes >= ~2 us
    // — otherwise the two steady_clock calls per sample would dominate
    // the sub-microsecond shapes and the percentiles would measure the
    // timer, not the query.  Reported latency = batch time / batch.
    const auto batch = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(0.002 / once_ms)));
    const auto samples = std::min<std::size_t>(std::max<std::size_t>(iters / batch, 1),
                                               2000);
    std::vector<double> lat_ms;
    lat_ms.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      const auto it0 = std::chrono::steady_clock::now();
      for (std::size_t j = 0; j < batch; ++j)
        sink += wl.run(cat, ctx, mode::vectorized, nullptr);
      lat_ms.push_back(elapsed_ms(it0) / static_cast<double>(batch));
    }
    const auto pct = util::summarize(lat_ms);

    // Reference-engine baseline (~100 ms budget): the pre-vectorization
    // row-at-a-time path, for the speedup column.
    const auto r0 = std::chrono::steady_clock::now();
    sink += wl.run(cat, ctx, mode::reference, nullptr);
    const double ref_once_ms = std::max(1e-4, elapsed_ms(r0));
    const auto ref_iters = static_cast<std::size_t>(
        std::clamp(100.0 / ref_once_ms, 1.0, 100000.0));
    const auto r1 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ref_iters; ++i)
      sink += wl.run(cat, ctx, mode::reference, nullptr);
    const double ref_total_ms = std::max(1e-4, elapsed_ms(r1));
    const double ref_qps = static_cast<double>(ref_iters) / (ref_total_ms / 1e3);
    const double speedup = ref_qps > 0.0 ? qps / ref_qps : 0.0;

    // Scan accounting of one execution.
    serve::exec::stats st;
    sink += wl.run(cat, ctx, mode::vectorized, &st);
    benchmark::DoNotOptimize(sink);

    t.row({wl.name, std::to_string(iters), util::fmt_double(qps, 1),
           util::fmt_double(pct.median, 4), util::fmt_double(pct.p99, 4),
           util::fmt_double(speedup, 2) + "x", std::to_string(st.rows_scanned),
           std::to_string(st.rows_skipped)});
    w.begin_object();
    w.key("query").value(wl.name);
    w.key("iterations").value(static_cast<std::uint64_t>(iters));
    w.key("total_ms").value(total_ms);
    w.key("queries_per_sec").value(qps);
    w.key("p50_ms").value(pct.median);
    w.key("p99_ms").value(pct.p99);
    w.key("latency_sample_batch").value(static_cast<std::uint64_t>(batch));
    w.key("rows_scanned").value(static_cast<std::uint64_t>(st.rows_scanned));
    w.key("rows_skipped").value(static_cast<std::uint64_t>(st.rows_skipped));
    w.key("blocks_skipped").value(static_cast<std::uint64_t>(st.blocks_skipped));
    w.key("reference_queries_per_sec").value(ref_qps);
    w.key("speedup_vs_reference").value(speedup);
    w.end_object();
  }

  w.end_array();
  w.end_object();

  t.footer("speedup = vectorized qps / reference (row-at-a-time) qps; scanned/"
           "skipped = rows touched vs pruned by zone maps + permutation index");
  t.print(std::cout);
  std::cout << "\nengine results identical to reference: yes\n";
  std::cout << "\nJSON: " << w.str() << "\n";

  if (const char* path = std::getenv("OPWAT_BENCH_JSON")) {
    std::ofstream out{path};
    out << w.str() << "\n";
    std::cout << "(written to " << path << ")\n";
  }
}

void BM_ingest(benchmark::State& state) {
  const auto& s = benchx::shared_scenario();
  const auto& pr = benchx::shared_pipeline();
  for (auto _ : state) {
    serve::catalog fresh;
    fresh.ingest(s.w, s.view, pr, "ingest");
    benchmark::DoNotOptimize(&fresh);
  }
}
BENCHMARK(BM_ingest)->Unit(benchmark::kMillisecond);

void BM_indexed_counts(benchmark::State& state) {
  const auto& ep = two_epoch_catalog().of("A");
  for (auto _ : state) {
    std::size_t n = 0;
    for (const auto& b : ep.blocks()) n += ep.count(b.ixp, peering_class::remote);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_indexed_counts);

void BM_group_by_step(benchmark::State& state) {
  const auto& cat = two_epoch_catalog();
  for (auto _ : state) {
    const auto g = serve::query(cat)
                       .epoch("A")
                       .cls(peering_class::remote)
                       .by_step()
                       .group_counts();
    benchmark::DoNotOptimize(&g);
  }
}
BENCHMARK(BM_group_by_step);

void BM_member_rows(benchmark::State& state) {
  const auto& cat = two_epoch_catalog();
  const auto ctx = make_ctx(cat);
  for (auto _ : state) {
    const auto r = serve::query(cat).epoch("A").member(ctx.hot_asn).rows();
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_member_rows);

void BM_rtt_band_count(benchmark::State& state) {
  const auto& cat = two_epoch_catalog();
  const auto ctx = make_ctx(cat);
  for (auto _ : state) {
    const auto n =
        serve::query(cat).epoch("A").rtt_between(ctx.rtt_lo, ctx.rtt_hi).count();
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_rtt_band_count);

void BM_diff_epochs(benchmark::State& state) {
  const auto& cat = two_epoch_catalog();
  for (auto _ : state) {
    const auto d = serve::diff_epochs(cat, "A", "B");
    benchmark::DoNotOptimize(&d);
  }
}
BENCHMARK(BM_diff_epochs)->Unit(benchmark::kMillisecond);

}  // namespace

OPWAT_BENCH_MAIN(print_catalog_query)
