#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "opwat/eval/metrics.hpp"
#include "opwat/serve/query.hpp"
#include "opwat/util/json.hpp"
#include "opwat/util/rng.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace opwat;

// --- report ------------------------------------------------------------------

void report::metric(const std::string& name, double value, const std::string& unit) {
  check(valid_metric_name(name), "metric name '" + name + "' is not [A-Za-z0-9][A-Za-z0-9_.-]*");
  check(std::isfinite(value), "metric " + name + " is not a finite number");
  metrics_.push_back(entry{name, std::isfinite(value) ? value : 0.0, unit});
}

void report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  ++failed_;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

std::string report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    if (i > 0) out += ", ";
    out.append("\"").append(util::json_escape(m.name)).append("\": {\"value\": ").append(num);
    out.append(", \"unit\": \"").append(util::json_escape(m.unit)).append("\"}");
  }
  out += "}}";
  return out;
}

// --- seeds -------------------------------------------------------------------

std::string epoch_label(std::size_t e) {
  const std::size_t month0 = 3 + e;  // April 2018 + e
  char buf[48];
  std::snprintf(buf, sizeof buf, "%04zu-%02zu", 2018 + month0 / 12, month0 % 12 + 1);
  return buf;
}

std::uint64_t derive_seed(std::uint64_t seed, const char* tag) {
  return util::hash_combine(util::splitmix64(seed), util::stable_hash(tag));
}

eval::scenario_config study_config(std::uint64_t seed, std::size_t e) {
  auto cfg = eval::default_scenario_config();
  const std::uint64_t s = util::hash_combine(util::splitmix64(seed), e);
  cfg.world.seed = derive_seed(s, "world");
  cfg.db_seed = derive_seed(s, "db");
  cfg.vp_seed = derive_seed(s, "vp");
  cfg.latency_seed = derive_seed(s, "latency");
  cfg.trace_seed = derive_seed(s, "traceroute");
  cfg.validation.seed = derive_seed(s, "validation");
  cfg.pipeline.seed = derive_seed(s, "pipeline");
  return cfg;
}

eval::scenario_config served_config(std::size_t e) {
  auto cfg = eval::default_scenario_config();
  cfg.world.seed = 42 + e;
  return cfg;
}

// --- study digest ----------------------------------------------------------------

study_digest digest_of(const eval::scenario& s, const infer::pipeline_result& pr) {
  study_digest d;
  d.traces = s.traces.size();
  d.scope = s.scope;
  std::uint64_t h = 0;
  for (const auto& [k, inf] : pr.inferences.items()) {
    h = util::hash_combine(h, k.ixp);
    h = util::hash_combine(h, k.ip.value());
    h = util::hash_combine(h, static_cast<std::uint64_t>(inf.cls) << 8 |
                                  static_cast<std::uint64_t>(inf.step));
  }
  d.inferences = h;
  for (const auto& t : pr.trace) d.decided.emplace_back(t.step, t.decided_local + t.decided_remote);

  const auto& vd = s.validation.test;
  for (const auto step : {infer::method_step::port_capacity, infer::method_step::rtt_colo,
                          infer::method_step::multi_ixp, infer::method_step::private_links}) {
    const auto m = eval::compute_metrics_for_step(pr.inferences, vd, step);
    d.quality.push_back(
        step_quality{std::string{infer::to_string(step)}, m.acc, m.cov, m.inferred_in_vd});
  }
  const auto all = eval::compute_metrics(pr.inferences, vd);
  d.quality.push_back(step_quality{"all", all.acc, all.cov, all.inferred_in_vd});
  return d;
}

std::string describe_quality(const study_digest& d) {
  std::ostringstream out;
  out << "traces " << d.traces << ", scope " << d.scope.size() << " IXPs; validation test set:";
  for (const auto& q : d.quality) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s acc %.4f cov %.4f (n=%zu);", q.step.c_str(), q.acc, q.cov,
                  q.inferred);
    out << buf;
  }
  return out.str();
}

// --- files ---------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

// --- answer oracle ---------------------------------------------------------------

const char* exec_span(portal::op_code op) {
  switch (op) {
    case portal::op_code::member: return "serve.exec.member";
    case portal::op_code::rtt_band: return "serve.exec.rtt_band";
    case portal::op_code::group_by: return "serve.exec.group_by";
    case portal::op_code::diff: return "serve.exec.diff";
    default: return "serve.exec.other";
  }
}

namespace {

portal::response error_response(portal::portal_errc status, std::string msg) {
  portal::response r;
  r.status = status;
  r.message = std::move(msg);
  return r;
}

portal::row_record to_record(const serve::iface_row& row) {
  portal::row_record rec;
  rec.ip = row.ip.value();
  rec.ixp = row.ixp;
  rec.asn = row.asn.value;
  rec.cls = static_cast<std::uint8_t>(row.cls);
  rec.step = static_cast<std::uint8_t>(row.step);
  rec.rtt_ms = row.rtt_min_ms;
  return rec;
}

/// Row-returning shapes (member, rtt_band): filters, count, first page.
void fill_rows(portal::response& resp, serve::query& q, std::uint32_t limit) {
  resp.total = q.count();
  q.page(0, limit);
  for (const auto& row : q.rows()) resp.rows.push_back(to_record(row));
}

}  // namespace

portal::response answer(const portal::request& in, const serve::catalog& snap,
                        serve::exec::stats* st, serve::exec::mode mode) {
  using portal::op_code;
  using portal::portal_errc;
  // Server defaults (server_config::max_limit).
  constexpr std::uint32_t k_max_limit = 10000;
  portal::request req = in;
  req.limit = std::min(req.limit, k_max_limit);
  portal::response resp;
  resp.id = in.id;

  if (snap.epoch_count() == 0) return error_response(portal_errc::unknown_epoch, "catalog holds no epochs");
  const auto latest = snap.at(static_cast<serve::epoch_id>(snap.epoch_count() - 1)).label();
  if (req.epoch.empty()) req.epoch = latest;
  if (req.op == op_code::diff && req.epoch_to.empty()) req.epoch_to = latest;
  if (!snap.find(req.epoch))
    return error_response(portal_errc::unknown_epoch, "unknown epoch label: " + req.epoch);
  if (req.op == op_code::diff && !snap.find(req.epoch_to))
    return error_response(portal_errc::unknown_epoch, "unknown epoch label: " + req.epoch_to);

  if (req.op == op_code::rtt_band &&
      (std::isnan(req.rtt_lo_ms) || std::isnan(req.rtt_hi_ms) || req.rtt_lo_ms > req.rtt_hi_ms))
    return error_response(portal_errc::bad_request, "rtt_band needs lo <= hi, both numbers");

  serve::query q{snap};
  q.engine(mode);
  if (mode == serve::exec::mode::vectorized) q.collect_stats(st);
  q.epoch(req.epoch);
  if (req.op != op_code::diff && req.ixp_id != portal::k_no_ixp_filter) {
    if (!snap.ixp_by_id(req.ixp_id))
      return error_response(portal_errc::unknown_ixp, "unknown IXP id: " + std::to_string(req.ixp_id));
    q.at_ixp(world::ixp_id{req.ixp_id});
  }

  switch (req.op) {
    case op_code::member:
      resp.epoch = req.epoch;
      q.member(net::asn{req.asn});
      fill_rows(resp, q, req.limit);
      break;
    case op_code::rtt_band:
      resp.epoch = req.epoch;
      q.rtt_between(req.rtt_lo_ms, req.rtt_hi_ms).sort_by_rtt();
      fill_rows(resp, q, req.limit);
      break;
    case op_code::group_by: {
      resp.epoch = req.epoch;
      if (req.cls_filter != portal::k_no_cls_filter) {
        if (req.cls_filter >= infer::k_n_peering_classes)
          return error_response(portal_errc::bad_request,
                                "unknown peering class " + std::to_string(req.cls_filter));
        q.cls(static_cast<infer::peering_class>(req.cls_filter));
      }
      switch (req.dim) {
        case portal::group_dim::ixp: q.by_ixp(); break;
        case portal::group_dim::asn: q.by_asn(); break;
        case portal::group_dim::metro: q.by_metro(); break;
        case portal::group_dim::cls: q.by_class(); break;
        case portal::group_dim::step: q.by_step(); break;
      }
      const auto groups = q.group_counts();
      resp.total = groups.size();
      const std::size_t n = std::min<std::size_t>(groups.size(), req.limit);
      for (std::size_t i = 0; i < n; ++i)
        resp.groups.push_back(portal::group_record{groups[i].key, groups[i].count});
      break;
    }
    case op_code::diff: {
      const auto d = mode == serve::exec::mode::reference
                         ? serve::diff_epochs_reference(snap, req.epoch, req.epoch_to)
                         : serve::diff_epochs(snap, req.epoch, req.epoch_to);
      resp.epoch = req.epoch;
      resp.labels = {req.epoch, req.epoch_to};
      resp.appeared = d.appeared.size();
      resp.disappeared = d.disappeared.size();
      resp.reclassified = d.reclassified.size();
      resp.total = resp.appeared + resp.disappeared + resp.reclassified;
      break;
    }
    default:
      return error_response(portal_errc::bad_request, "op outside the benchmark's mix");
  }
  return resp;
}

portal::workload traffic(const serve::catalog& cat, std::uint64_t seed,
                         portal::workload_config cfg) {
  cfg.seed = derive_seed(seed, "traffic");
  return portal::workload{cat, cfg};
}

std::string canonical_bytes(const portal::response& r) {
  portal::response c = r;
  c.id = 0;
  c.cache_hit = false;
  return portal::encode_response(c);
}

// --- set-up ----------------------------------------------------------------------

namespace {

void build_fixture_once(fixture& fx, const options& opt,
                        const std::function<eval::scenario_config(std::size_t)>& config_of,
                        tracer& tr, report& rep) {
  fx.store_path = opt.out_dir + "/served.opwatc";
  for (std::size_t e = 0; e < k_epochs; ++e) {
    const auto t0 = now_ns();
    auto sp = tr.open("setup.study");
    const auto scn = [&] {
      auto b = tr.open("scenario.build");
      return eval::scenario::build(config_of(e));
    }();
    const auto pr = [&] {
      auto b = tr.open("infer.run");
      return scn.run_inference();
    }();
    {
      auto b = tr.open("serve.ingest");
      if (e + 1 == k_epochs) fx.prefix = fx.full;
      fx.full.ingest(scn.w, scn.view, pr, epoch_label(e));
    }
    fx.study_s.push_back(since_s(t0));
    fx.digests.push_back(digest_of(scn, pr));
    if (e + 1 == k_epochs) {
      fx.next = fx.full;
      fx.next.ingest(scn.w, scn.view, pr, epoch_label(e + 1));
    }
  }
  {
    auto sp = tr.open("serve.save");
    fx.full.save(fx.store_path);
  }
  fx.file_bytes = file_size(fx.store_path);
  // The store round-trips: the reloaded catalog saves to the same bytes.
  const auto back = [&] {
    auto sp = tr.open("serve.load");
    return serve::catalog::load(fx.store_path);
  }();
  back.save(fx.store_path + ".resaved");
  rep.check(read_file(fx.store_path) == read_file(fx.store_path + ".resaved"),
            "the served catalog does not round-trip through the store byte for byte");
  for (std::size_t e = 0; e < fx.full.epoch_count(); ++e)
    fx.rows += fx.full.at(static_cast<serve::epoch_id>(e)).rows();
}

}  // namespace

double build_fixture(fixture& fx, const options& opt,
                     const std::function<eval::scenario_config(std::size_t)>& config_of,
                     tracer& tr, report& rep) {
  std::vector<double> build_s, study_s;
  std::string first_bytes;
  for (std::size_t k = 0; k < k_setups; ++k) {
    const auto t0 = now_ns();
    fixture f;
    build_fixture_once(f, opt, config_of, tr, rep);
    build_s.push_back(since_s(t0));
    if (k == 0) {
      first_bytes = read_file(f.store_path);
    } else {
      rep.check(f.digests == fx.digests && read_file(f.store_path) == first_bytes,
                "set-up " + std::to_string(k) + " built other studies than set-up 0");
    }
    study_s.insert(study_s.end(), f.study_s.begin(), f.study_s.end());
    fx = std::move(f);
  }
  fx.study_s = std::move(study_s);
  return median(build_s);
}

double publish_once(const serve::catalog& base, const serve::catalog& next,
                    const std::string& path, serve::shared_catalog& shared,
                    const std::function<bool(std::uint64_t)>& served, tracer& tr) {
  base.save(path);
  auto sp = tr.open("publish");
  const auto t0 = now_ns();
  {
    auto a = tr.open("serve.append");
    next.append_epoch(path, static_cast<serve::epoch_id>(next.epoch_count() - 1));
  }
  {
    auto r = tr.open("serve.reload");
    shared.load(path);
  }
  const std::uint64_t version = shared.version();
  {
    auto c = tr.open("publish.confirm");
    while (!served(version)) {
    }
  }
  return static_cast<double>(now_ns() - t0) / 1e6;
}

std::vector<double> setup_publishes(const fixture& fx, serve::shared_catalog& shared,
                                    const std::function<bool(std::uint64_t)>& served, tracer& tr,
                                    std::size_t reps) {
  std::vector<double> out;
  const std::string path = fx.store_path + ".publish";
  for (std::size_t i = 0; i < reps; ++i)
    out.push_back(publish_once(fx.prefix, fx.full, path, shared, served, tr));
  return out;
}

// --- host ------------------------------------------------------------------------

double since_s(std::int64_t t0_ns) { return static_cast<double>(now_ns() - t0_ns) / 1e9; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

host_sample read_host_cpu() {
  // Aggregate "cpu" line of the kernel's counters: user nice system idle
  // iowait irq softirq steal ...
  std::ifstream in{"/proc/stat"};
  std::string label;
  host_sample s;
  if (!(in >> label) || label != "cpu") return s;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    s.total += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

double steal_pct(const host_sample& a, const host_sample& b) {
  if (b.total <= a.total) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total);
}

void add_host_layers(layer_values& lv, const host_sample& a, const host_sample& b) {
  lv["host.steal_pct"] = steal_pct(a, b);
  std::cout << "host: nproc " << std::thread::hardware_concurrency() << ", steal "
            << lv["host.steal_pct"] << " % over the measured phase\n";
}

void write_spans(const options& opt, const std::vector<const tracer*>& tracers) {
  const std::string path =
      opt.out_dir + "/spans-" + opt.workload + "-" + std::to_string(opt.seed) + ".tsv";
  std::ofstream out{path};
  out << "thread\tindex\tparent\tname\tstart_ns\tend_ns\n";
  for (std::size_t t = 0; t < tracers.size(); ++t) tracers[t]->write(out, static_cast<int>(t));
  std::cout << "spans written to " << path << "\n";
}

double median_span_ns(const tracer& tr, const char* name) {
  std::vector<double> d;
  const std::string_view want{name};
  for (const auto& s : tr.spans())
    if (want == s.name) d.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return median(std::move(d));
}

}  // namespace perfbench

namespace perfbench {

void emit_e2e(report& rep, const e2e_values& v) {
  rep.metric("setup_s", v.setup_s, "s");
  rep.metric("peak_rss_mb", v.peak_rss_mb, "MB");
  rep.metric("study_s", v.study_s, "s");
  rep.metric("store_bytes_per_row", v.store_bytes_per_row, "B");
  rep.metric("qps", v.qps, "req/s");
  rep.metric("p50_us", v.p50_us, "us");
  rep.metric("p99_us", v.p99_us, "us");
  rep.metric("ok_frac", v.ok_frac, "ratio");
  rep.metric("publish_ms", v.publish_ms, "ms");
}

namespace {

struct layer_metric {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's per_layer metrics (run.py checks).
constexpr layer_metric k_layer_metrics[] = {
    {"world.generate_ms", "ms"},
    {"db.snapshots_ms", "ms"},
    {"db.merge_ms", "ms"},
    {"db.ip2as_ms", "ms"},
    {"measure.vantage_ms", "ms"},
    {"measure.traceroute_ms", "ms"},
    {"measure.traces", "count"},
    {"eval.validation_ms", "ms"},
    {"eval.accuracy", "ratio"},
    {"eval.coverage", "ratio"},
    {"infer.run_ms", "ms"},
    {"infer.ping-campaign_ms", "ms"},
    {"infer.path-extraction_ms", "ms"},
    {"infer.port-capacity_ms", "ms"},
    {"infer.rtt-colo_ms", "ms"},
    {"infer.multi-ixp_ms", "ms"},
    {"infer.private-links_ms", "ms"},
    {"infer.ping-campaign.decided", "count"},
    {"infer.path-extraction.decided", "count"},
    {"infer.port-capacity.decided", "count"},
    {"infer.rtt-colo.decided", "count"},
    {"infer.multi-ixp.decided", "count"},
    {"infer.private-links.decided", "count"},
    {"serve.ingest_ms", "ms"},
    {"serve.save_ms", "ms"},
    {"serve.load_ms", "ms"},
    {"serve.file_bytes", "B"},
    {"serve.exec.member_us", "us"},
    {"serve.exec.rtt_band_us", "us"},
    {"serve.exec.group_by_us", "us"},
    {"serve.exec.diff_us", "us"},
    {"serve.exec.rows_scanned", "count"},
    {"serve.exec.rows_skipped", "count"},
    {"serve.exec.blocks_pruned", "count"},
    {"serve.exec.rows_returned_per_scanned", "ratio"},
    {"serve.snapshot_ns", "ns"},
    {"serve.append_ms", "ms"},
    {"serve.reload_ms", "ms"},
    {"serve.publishes", "count"},
    {"portal.protocol.encode_ns", "ns"},
    {"portal.protocol.decode_ns", "ns"},
    {"portal.cache_hit_rate", "ratio"},
    {"portal.shed_queue_full", "count"},
    {"portal.shed_pipeline", "count"},
    {"portal.protocol_errors", "count"},
    {"portal.requests_admitted", "count"},
    {"portal.exec_share", "ratio"},
    {"portal.closed_qps", "req/s"},
    {"portal.closed_p50_us", "us"},
    {"portal.closed_p99_us", "us"},
    {"portal.publish_ms", "ms"},
    {"portal.open_p50_us", "us"},
    {"portal.open_p99_us", "us"},
    {"net.bytes_per_request", "B"},
    {"net.bytes_per_response", "B"},
    {"gen.offered_qps", "req/s"},
    {"gen.late_p99_us", "us"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_ms", "ms"},
    {"host.steal_pct", "%"},
};

}  // namespace

void emit_layers(report& rep, const layer_values& v) {
  for (const auto& [name, value] : v) {
    const bool known = std::any_of(std::begin(k_layer_metrics), std::end(k_layer_metrics),
                                   [&](const layer_metric& m) { return name == m.name; });
    rep.check(known, "per-layer metric " + name + " is not in the benchmark's list");
  }
  for (const auto& m : k_layer_metrics) {
    const auto it = v.find(m.name);
    rep.metric(m.name, it == v.end() ? 0.0 : it->second, m.unit);
  }
}

latency_summary summarize_latency(std::vector<double> ns) {
  latency_summary l;
  l.n = ns.size();
  l.supported_q = highest_supported_quantile(l.n);
  l.p50_us = quantile(ns, 0.5) / 1000.0;
  l.p99_us = quantile(ns, 0.99) / 1000.0;
  return l;
}

std::string describe(const latency_summary& l) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "p50 %.2f us, p99 %.2f us over %zu samples (highest supported percentile p%g)",
                l.p50_us, l.p99_us, l.n, l.supported_q * 100.0);
  return buf;
}

protocol_cost time_protocol(const std::vector<portal::request>& reqs,
                            const std::vector<portal::response>& resps) {
  protocol_cost c;
  if (reqs.empty() || resps.empty()) return c;
  std::vector<std::string> req_frames, resp_frames;
  req_frames.reserve(reqs.size());
  resp_frames.reserve(resps.size());
  const auto t0 = now_ns();
  for (const auto& r : reqs) req_frames.push_back(portal::encode_request(r));
  for (const auto& r : resps) resp_frames.push_back(portal::encode_response(r));
  const auto t1 = now_ns();
  for (const auto& f : req_frames)
    (void)portal::decode_request(std::string_view{f}.substr(portal::k_frame_prefix_bytes));
  for (const auto& f : resp_frames)
    (void)portal::decode_response(std::string_view{f}.substr(portal::k_frame_prefix_bytes));
  const auto t2 = now_ns();
  const auto n = static_cast<double>(reqs.size() + resps.size());
  c.encode_ns = static_cast<double>(t1 - t0) / n;
  c.decode_ns = static_cast<double>(t2 - t1) / n;
  double req_bytes = 0, resp_bytes = 0;
  for (const auto& f : req_frames) req_bytes += static_cast<double>(f.size());
  for (const auto& f : resp_frames) resp_bytes += static_cast<double>(f.size());
  c.bytes_per_request = req_bytes / static_cast<double>(req_frames.size());
  c.bytes_per_response = resp_bytes / static_cast<double>(resp_frames.size());
  return c;
}

void exec_totals::add(const serve::exec::stats& q, const portal::request& req,
                      const portal::response& r) {
  if (req.op == portal::op_code::diff) return;  // diffs run no scan
  ++queries;
  st.rows_scanned += q.rows_scanned;
  st.rows_skipped += q.rows_skipped;
  st.blocks_skipped += q.blocks_skipped;
  returned += r.rows.size() + r.groups.size();
}

void exec_totals::fill(layer_values& lv) const {
  if (queries == 0) return;
  const auto per = [&](std::size_t v) { return static_cast<double>(v) / static_cast<double>(queries); };
  lv["serve.exec.rows_scanned"] = per(st.rows_scanned);
  lv["serve.exec.rows_skipped"] = per(st.rows_skipped);
  lv["serve.exec.blocks_pruned"] = per(st.blocks_skipped);
  if (st.rows_scanned > 0)
    lv["serve.exec.rows_returned_per_scanned"] =
        static_cast<double>(returned) / static_cast<double>(st.rows_scanned);
}

void fill_exec_spans(const tracer& tr, layer_values& lv) {
  for (const char* op : {"member", "rtt_band", "group_by", "diff"}) {
    const std::string span = std::string{"serve.exec."} + op;
    std::vector<double> d;
    for (const auto& s : tr.spans())
      if (span == s.name) d.push_back(static_cast<double>(s.end_ns - s.start_ns));
    if (!d.empty()) lv["serve.exec." + std::string{op} + "_us"] = median(std::move(d)) / 1000.0;
  }
}

}  // namespace perfbench
