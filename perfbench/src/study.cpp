// Workload `study`: the researcher's path.  One paper-scale study per
// iteration — scenario::build → run_inference → catalog::ingest → save →
// load.  Each world (study seed e = 0, 1, 2, ... derived from the workload
// seed) is studied twice in a row, and a run goes on to new worlds as long
// as its time allows: the studies differ in size from world to world, and
// a run over many of them is steadier than one that cycles over three.
// Every study must match its world's reference: the set-up's study for
// the set-up's worlds, the first of the pair for later ones.
//
// The traced run makes each pair a traced iteration that reassembles
// scenario::build from the same public calls in the same order (one span
// per call) and an untraced scenario::build iteration, alternating which
// goes first; the two must match, and the difference of the two medians is
// the tracing overhead.
#include <algorithm>
#include <iostream>
#include <optional>

#include "bench.hpp"
#include "opwat/portal/workload.hpp"
#include "opwat/util/rng.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace opwat;

namespace {

/// Publishes timed for publish_ms (no traffic in this workload): in the
/// set-up, then a few after every iteration so the samples span the run.
constexpr std::size_t k_setup_publishes = 20;
constexpr std::size_t k_publishes_per_iteration = 3;
/// Portal-shaped queries replayed on each iteration's loaded catalog.
/// The stream goes on from iteration to iteration, so a run times many
/// distinct requests rather than the same ones again and again.
constexpr std::size_t k_parity_queries = 4000;
/// Parity-query latency samples kept over a run: about twice what a 40 s
/// run times today (~120 k), in storage reserved once, so the benchmark's
/// own memory does not grow with the program's speed.
constexpr std::size_t k_query_samples = std::size_t{1} << 18;

/// scenario::build, call for call, with a span around each library call.
eval::scenario reassemble(const eval::scenario_config& cfg, tracer& tr) {
  eval::scenario s;
  s.cfg = cfg;
  {
    auto sp = tr.open("world.generate");
    s.w = world::generate(cfg.world);
  }
  std::vector<db::snapshot> snapshots;
  {
    auto sp = tr.open("db.snapshots");
    snapshots = db::make_standard_snapshots(s.w, cfg.db_seed);
  }
  {
    auto sp = tr.open("db.merge");
    s.view = db::merged_view::build(snapshots);
  }
  {
    auto sp = tr.open("db.ip2as");
    s.prefix2as = db::ip2as::build(s.w);
  }
  s.lat = measure::latency_model{cfg.latency_seed};
  {
    auto sp = tr.open("measure.vantage");
    s.vps = measure::make_vantage_points(s.w, cfg.vps, util::rng{cfg.vp_seed});
  }
  {
    auto sp = tr.open("measure.traceroute");
    const measure::traceroute_engine engine{s.w, s.lat, cfg.traceroute};
    util::rng tr_rng{cfg.trace_seed};
    auto sources = engine.connected_ases();
    tr_rng.shuffle(sources);
    if (sources.size() > cfg.traceroute_sources) sources.resize(cfg.traceroute_sources);
    s.traces = engine.campaign(sources, cfg.targets_per_source, tr_rng);
  }
  // Scope: the largest IXPs (merged-view member interfaces) with an
  // alive VP — scenario::build's own selection, which is not a library
  // call of its own and so stays in the study span's self time.
  std::vector<world::ixp_id> with_vp;
  for (const auto& x : s.w.ixps) {
    const bool has_vp = std::any_of(s.vps.begin(), s.vps.end(), [&](const auto& vp) {
      return vp.ixp == x.id && vp.alive;
    });
    if (has_vp && !s.view.interfaces_of_ixp(x.id).empty()) with_vp.push_back(x.id);
  }
  std::sort(with_vp.begin(), with_vp.end(), [&](world::ixp_id a, world::ixp_id b) {
    return s.ixp_size(a) > s.ixp_size(b);
  });
  if (with_vp.size() > cfg.top_n_ixps) with_vp.resize(cfg.top_n_ixps);
  s.scope = std::move(with_vp);
  {
    auto sp = tr.open("eval.validation");
    s.validation = eval::build_validation(s.w, cfg.validation, s.scope);
  }
  return s;
}

struct iteration {
  double seconds = 0;
  study_digest digest;
  std::vector<infer::step_trace> ledger;
  std::uint64_t file_bytes = 0;
  std::size_t rows = 0;
};

}  // namespace

int run_study(const options& opt, report& rep) {
  tracer tr{opt.trace};
  const std::string path = opt.out_dir + "/study.opwatc";
  const std::string resaved = opt.out_dir + "/study-resaved.opwatc";

  // ---- set-up: the epoch studies (the references) and publish timing ----
  fixture fx;
  const double build_s =
      build_fixture(fx, opt, [&](std::size_t e) { return study_config(opt.seed, e); }, tr, rep);
  const auto t_setup = now_ns();
  serve::shared_catalog shared;
  const auto served = [&](std::uint64_t v) { return shared.version() >= v; };
  auto pubs = setup_publishes(fx, shared, served, tr, k_setup_publishes);
  const double setup_s = build_s + since_s(t_setup);
  std::cout << "set-up " << setup_s << " s; epoch 0 " << describe_quality(fx.digests[0]) << "\n";

  std::vector<double> untraced_s, traced_s;
  // Parity-query times of every untraced iteration, pooled.
  reservoir query_ns{k_query_samples};
  std::uint64_t next_query = 0;  // index into the request stream
  double total_bytes = 0, total_rows = 0;
  std::vector<iteration> traced_its;
  // Per world: the reference study and the hash of its first save.
  std::vector<std::optional<study_digest>> refs(fx.digests.begin(), fx.digests.end());
  std::vector<std::optional<std::uint64_t>> store_hash;
  std::vector<portal::request> sample_reqs;
  std::vector<portal::response> sample_resps;
  exec_totals scans;

  const auto run_one = [&](std::size_t e, bool traced) {
    iteration it;
    const auto t0 = now_ns();
    serve::catalog cat;
    std::optional<serve::catalog> loaded;
    std::optional<eval::scenario> scn;
    std::optional<infer::pipeline_result> pr;
    {
      auto root = tr.open("study");
      tracer untraced{false};
      tracer& t = traced ? tr : untraced;
      const auto cfg = study_config(opt.seed, e);
      scn.emplace(traced ? reassemble(cfg, t) : eval::scenario::build(cfg));
      {
        auto sp = t.open("infer.run");
        pr.emplace(scn->run_inference());
      }
      {
        auto sp = t.open("serve.ingest");
        cat.ingest(scn->w, scn->view, *pr, epoch_label(e));
      }
      {
        auto sp = t.open("serve.save");
        cat.save(path);
      }
      {
        auto sp = t.open("serve.load");
        loaded.emplace(serve::catalog::load(path));
      }
      it.seconds = since_s(t0);
    }
    it.digest = digest_of(*scn, *pr);
    it.ledger = pr->trace;
    it.file_bytes = file_size(path);
    it.rows = loaded->at(0).rows();

    // Same seed, same study: scope, trace count, every inference and the
    // per-step accuracy and coverage all match the world's reference.
    if (refs.size() <= e) refs.resize(e + 1);
    if (!refs[e]) refs[e] = it.digest;
    rep.check(it.digest == *refs[e],
              "study of world " + std::to_string(e) + " differs from its reference (" +
                  describe_quality(it.digest) + " vs " + describe_quality(*refs[e]) + ")");
    // save → load → save is byte-stable, and so is every save of a seed.
    loaded->save(resaved);
    const std::string bytes = read_file(path);
    rep.check(bytes == read_file(resaved), "save -> load -> save is not byte-stable");
    const std::uint64_t hash = util::stable_hash(bytes);
    if (store_hash.size() <= e) store_hash.resize(e + 1);
    if (!store_hash[e]) store_hash[e] = hash;
    rep.check(hash == *store_hash[e], "saving the same study twice gave different bytes");

    // The loaded catalog answers a portal-shaped stream exactly as the
    // in-memory one does.
    const auto wl = traffic(*loaded, opt.seed);
    for (std::size_t j = 0; j < k_parity_queries; ++j) {
      const auto req = wl.nth(next_query++);
      serve::exec::stats st;
      portal::response got;
      const auto q0 = now_ns();
      {
        auto sp = tr.open(traced ? exec_span(req.op) : "query");
        got = answer(req, *loaded, &st);
      }
      const auto q1 = now_ns();
      if (!traced) query_ns.add(static_cast<double>(q1 - q0));
      const auto want = answer(req, cat);
      rep.check(got.status == portal::portal_errc::ok, "parity query failed on the loaded catalog");
      rep.check(canonical_bytes(got) == canonical_bytes(want),
                "loaded catalog answers query " + std::to_string(next_query - 1) + " differently");
      scans.add(st, req, got);
      if (traced && sample_reqs.size() < k_parity_queries) {
        sample_reqs.push_back(req);
        sample_resps.push_back(got);
      }
    }
    rep.add_attempted(1 + k_parity_queries);
    for (std::size_t k = 0; k < k_publishes_per_iteration; ++k)
      pubs.push_back(
          publish_once(fx.prefix, fx.full, fx.store_path + ".publish", shared, served, tr));
    (traced ? traced_s : untraced_s).push_back(it.seconds);
    total_bytes += static_cast<double>(it.file_bytes);
    total_rows += static_cast<double>(it.rows);
    if (traced) traced_its.push_back(std::move(it));
  };

  // ---- measured phase: two studies of each world, world after world ----
  const auto host0 = read_host_cpu();
  const auto t0 = now_ns();
  for (std::size_t e = 0;; ++e) {
    if (e > 0 && since_s(t0) >= opt.seconds) break;
    // Untraced: both plain.  Traced: one of each, alternating which is first.
    run_one(e, opt.trace && e % 2 == 0);
    run_one(e, opt.trace && e % 2 != 0);
  }
  const auto host1 = read_host_cpu();

  const double study_s = median(untraced_s);
  const auto lat = summarize_latency(query_ns.kept());
  std::cout << "study: " << untraced_s.size() << " untraced iterations over " << refs.size()
            << " worlds, median " << study_s << " s; " << query_ns.seen() << " parity queries, "
            << static_cast<double>(scans.st.rows_scanned) / static_cast<double>(scans.queries)
            << " rows scanned per scanning query, " << describe(lat) << "\n";

  if (!opt.trace) {
    e2e_values v;
    v.setup_s = setup_s;
    v.peak_rss_mb = peak_rss_mb();
    v.study_s = study_s;
    v.store_bytes_per_row = total_bytes / total_rows;
    v.qps = static_cast<double>(query_ns.seen()) / (query_ns.sum() / 1e9);
    v.p50_us = lat.p50_us;
    v.p99_us = lat.p99_us;
    v.ok_frac = 1.0 - static_cast<double>(rep.failed()) / static_cast<double>(rep.attempted());
    v.publish_ms = median(pubs);
    emit_e2e(rep, v);
    return 0;
  }

  // ---- per-layer attribution over the traced studies ----
  layer_values lv;
  const auto per_study = tr.self_by_root("study");
  const auto layer_ms = [&](const char* name) {
    std::vector<double> v;
    for (const auto& m : per_study) {
      const auto it = m.find(name);
      if (it != m.end() && m.size() > 1) v.push_back(static_cast<double>(it->second) / 1e6);
    }
    return median(std::move(v));
  };
  double layer_sum_ms = 0;
  for (const char* name :
       {"world.generate", "db.snapshots", "db.merge", "db.ip2as", "measure.vantage",
        "measure.traceroute", "eval.validation", "infer.run", "serve.ingest", "serve.save",
        "serve.load"}) {
    const double ms = layer_ms(name);
    lv[std::string{name} + "_ms"] = ms;
    layer_sum_ms += ms;
  }
  lv["trace.unattributed_ms"] = layer_ms("study");
  layer_sum_ms += lv["trace.unattributed_ms"];

  std::map<std::string, std::vector<double>> step_ms, step_decided;
  std::vector<double> traces, accuracy, coverage, file_bytes;
  for (const auto& it : traced_its) {
    for (const auto& st : it.ledger) {
      step_ms[st.step].push_back(st.elapsed_ms);
      step_decided[st.step].push_back(static_cast<double>(st.decided_local + st.decided_remote));
    }
    traces.push_back(static_cast<double>(it.digest.traces));
    accuracy.push_back(it.digest.quality.back().acc);
    coverage.push_back(it.digest.quality.back().cov);
    file_bytes.push_back(static_cast<double>(it.file_bytes));
  }
  for (auto& [step, v] : step_ms) lv["infer." + step + "_ms"] = median(v);
  for (auto& [step, v] : step_decided) lv["infer." + step + ".decided"] = median(v);
  lv["measure.traces"] = median(traces);
  lv["eval.accuracy"] = median(accuracy);
  lv["eval.coverage"] = median(coverage);
  lv["serve.file_bytes"] = median(file_bytes);
  lv["serve.append_ms"] = median_span_ns(tr, "serve.append") / 1e6;
  lv["serve.reload_ms"] = median_span_ns(tr, "serve.reload") / 1e6;
  fill_exec_spans(tr, lv);
  scans.fill(lv);
  const auto proto = time_protocol(sample_reqs, sample_resps);
  lv["portal.protocol.encode_ns"] = proto.encode_ns;
  lv["portal.protocol.decode_ns"] = proto.decode_ns;
  const double traced_med = median(traced_s);
  lv["trace.overhead_frac"] = traced_med / study_s - 1.0;
  add_host_layers(lv, host0, host1);

  std::cout << "traced studies: median " << traced_med << " s vs untraced " << study_s
            << " s; per-layer self-time medians sum to " << layer_sum_ms / 1000.0 << " s\n";
  write_spans(opt, {&tr});
  emit_layers(rep, lv);
  return 0;
}

}  // namespace perfbench
