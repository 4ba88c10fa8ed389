// Shared pieces of the opwat benchmark driver: run options, the result
// report, seed derivation, the paper-scale set-up every workload starts
// from, the publish path, and the in-process answer oracle.
//
// See ../NOTES.md for the workloads, metrics and why each was chosen.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "opwat/eval/scenario.hpp"
#include "opwat/portal/protocol.hpp"
#include "opwat/portal/workload.hpp"
#include "opwat/serve/catalog.hpp"
#include "opwat/serve/exec.hpp"
#include "opwat/serve/shared_catalog.hpp"
#include "trace.hpp"

namespace perfbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's snapshot files and span dump.
  std::string out_dir;
};

/// The run's verdict and numbers, printed as the final JSON line.
class report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check: the run is no longer correct.
  /// Each call also counts one failed operation.
  void check(bool ok, const std::string& what);
  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool correct() const noexcept { return correct_; }
  /// The contract line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;

 private:
  struct entry {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<entry> metrics_;
};

/// Epochs in the served catalog (the shape of `opwatd --gen paper
/// --epochs 3`).
inline constexpr std::size_t k_epochs = 3;

/// Month label of epoch e: 2018-04, 2018-05, ...
[[nodiscard]] std::string epoch_label(std::size_t e);

/// Paper-scale study config of epoch `e`; the world, database, vantage
/// point, latency, traceroute, validation and pipeline seeds all derive
/// from the workload seed.
[[nodiscard]] opwat::eval::scenario_config study_config(std::uint64_t seed, std::size_t e);

/// Epoch `e` of the catalog `opwatd --gen paper --epochs 3` serves: the
/// default paper-scale scenario with world seed 42 + e.
[[nodiscard]] opwat::eval::scenario_config served_config(std::size_t e);

/// Seed of a named sub-stream (workload generator, samples, ...).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, const char* tag);

/// Per-step inference quality against the validation test subset.
struct step_quality {
  std::string step;
  double acc = 0;
  double cov = 0;
  std::size_t inferred = 0;
  [[nodiscard]] bool operator==(const step_quality&) const = default;
};

/// What must be identical whenever the same study seed is run again.
struct study_digest {
  std::size_t traces = 0;
  std::vector<opwat::world::ixp_id> scope;
  std::uint64_t inferences = 0;  ///< hash of every decided interface
  std::vector<std::pair<std::string, std::size_t>> decided;  ///< per ledger step
  std::vector<step_quality> quality;  ///< per decision step, then "all"
  [[nodiscard]] bool operator==(const study_digest&) const = default;
};

[[nodiscard]] study_digest digest_of(const opwat::eval::scenario& s,
                                     const opwat::infer::pipeline_result& pr);

/// One line per step: accuracy and coverage on the validation test set.
[[nodiscard]] std::string describe_quality(const study_digest& d);

/// Size of a file in bytes, and its full contents.
[[nodiscard]] std::uint64_t file_size(const std::string& path);
[[nodiscard]] std::string read_file(const std::string& path);

/// The portal response the server would produce for `req` on `snap`
/// (same epoch resolution, limit clamp and error mapping), computed
/// in-process straight through serve::query / serve::diff_epochs.
/// Accumulates the scan accounting of the query into *st when given.
[[nodiscard]] opwat::portal::response answer(
    const opwat::portal::request& req, const opwat::serve::catalog& snap,
    opwat::serve::exec::stats* st = nullptr,
    opwat::serve::exec::mode mode = opwat::serve::exec::mode::vectorized);

/// The benchmark's request stream: the default-mix portal::workload
/// stream over `cat`'s shape, seeded from the workload seed (request i has
/// wire id uint32(i)).
[[nodiscard]] opwat::portal::workload traffic(const opwat::serve::catalog& cat,
                                              std::uint64_t seed,
                                              opwat::portal::workload_config cfg = {});

/// Response bytes with the id and cache flag cleared: two answers to one
/// query compare equal exactly when these bytes do (NaN-safe).
[[nodiscard]] std::string canonical_bytes(const opwat::portal::response& r);

/// Span name of an op's in-process execution: "serve.exec.<op>".
[[nodiscard]] const char* exec_span(opwat::portal::op_code op);

/// The catalogs every workload's set-up builds.
struct fixture {
  std::vector<study_digest> digests;  ///< per epoch
  std::vector<double> study_s;        ///< per epoch: build + infer + ingest
  opwat::serve::catalog prefix;       ///< epochs [0, k_epochs - 1)
  opwat::serve::catalog full;         ///< epochs [0, k_epochs)
  /// The full catalog plus one more epoch (the last study relabelled),
  /// the live publisher's payload.
  opwat::serve::catalog next;
  std::string store_path;  ///< the full catalog as .opwatc
  std::uint64_t file_bytes = 0;
  std::size_t rows = 0;  ///< rows over all epochs of `full`
};

/// Times a set-up is repeated in a run; setup_s takes their median.
inline constexpr std::size_t k_setups = 3;

/// Builds k_epochs paper-scale studies (scenario::build → run_inference
/// → ingest) from config_of(e), saves the catalog and checks it reloads
/// byte-stably.  Does so k_setups times, each from scratch, checks that
/// every build gives the first one's studies and store bytes, and keeps
/// the last (its study_s holds every build's studies).  Returns the
/// median build time in seconds.
[[nodiscard]] double build_fixture(
    fixture& fx, const options& opt,
    const std::function<opwat::eval::scenario_config(std::size_t)>& config_of, tracer& tr,
    report& rep);

/// The opwatd SIGHUP path: rewrites `base` to `path` (untimed), then
/// times `next.append_epoch(path)` + strict shared_catalog::load(path)
/// until `served(version)` reports the new version visible to readers.
/// Returns that time in ms (spans: serve.append, serve.reload).
[[nodiscard]] double publish_once(const opwat::serve::catalog& base,
                                          const opwat::serve::catalog& next,
                                          const std::string& path,
                                          opwat::serve::shared_catalog& shared,
                                          const std::function<bool(std::uint64_t)>& served,
                                          tracer& tr);

/// Set-up publishes (no traffic): publishes `fx.full` over `fx.prefix`
/// `reps` times and leaves `shared` serving `fx.full`.  Returns each
/// publish's time in ms.
[[nodiscard]] std::vector<double> setup_publishes(
    const fixture& fx, opwat::serve::shared_catalog& shared,
    const std::function<bool(std::uint64_t)>& served, tracer& tr, std::size_t reps);

/// Seconds since `t0_ns` (now_ns() clock).
[[nodiscard]] double since_s(std::int64_t t0_ns);

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Host facts recorded with every run.
struct host_sample {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] host_sample read_host_cpu();
[[nodiscard]] double steal_pct(const host_sample& a, const host_sample& b);


/// Writes every tracer's spans to <out_dir>/spans-<workload>-<seed>.tsv.
void write_spans(const options& opt, const std::vector<const tracer*>& tracers);

/// Median duration (ns) of the spans named `name`, NaN when none.
[[nodiscard]] double median_span_ns(const tracer& tr, const char* name);

/// End-to-end numbers; every workload reports all of them (NOTES.md
/// defines each one per workload).
struct e2e_values {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double study_s = 0;
  double store_bytes_per_row = 0;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double ok_frac = 0;
  double publish_ms = 0;
};
void emit_e2e(report& rep, const e2e_values& v);

/// Per-layer values by metric name.  Every per-layer metric is reported;
/// a name the workload did not set reads 0 (the layer did no work here).
using layer_values = std::map<std::string, double>;
void emit_layers(report& rep, const layer_values& v);

/// Sets host.steal_pct (steal share between a and b) and prints it with
/// the host's nproc, a host fact rather than a metric.
void add_host_layers(layer_values& lv, const host_sample& a, const host_sample& b);

/// Median and p99 of latency samples (ns), in microseconds, with the
/// sample count and the highest percentile the count supports.
struct latency_summary {
  double p50_us = 0;
  double p99_us = 0;
  std::size_t n = 0;
  double supported_q = 0;
};
[[nodiscard]] latency_summary summarize_latency(std::vector<double> ns);
[[nodiscard]] std::string describe(const latency_summary& l);

/// Mean per-message encode and decode time (ns) of a request/response
/// stream, and mean frame bytes per request and per response.
struct protocol_cost {
  double encode_ns = 0;
  double decode_ns = 0;
  double bytes_per_request = 0;
  double bytes_per_response = 0;
};
[[nodiscard]] protocol_cost time_protocol(const std::vector<opwat::portal::request>& reqs,
                                          const std::vector<opwat::portal::response>& resps);

/// Scan accounting folded over a query stream.
struct exec_totals {
  opwat::serve::exec::stats st;
  std::uint64_t queries = 0;  ///< scanning queries (diffs excluded)
  std::uint64_t returned = 0;  ///< rows + groups returned by those queries
  void add(const opwat::serve::exec::stats& q, const opwat::portal::request& req,
           const opwat::portal::response& r);
  void fill(layer_values& lv) const;
};

/// Median serve.exec.<op> span duration per shape, in µs, into `lv`.
void fill_exec_spans(const tracer& tr, layer_values& lv);

int run_study(const options& opt, report& rep);
int run_query_direct(const options& opt, report& rep);
/// query_direct's traced run: serves the seed's traffic through an
/// in-process portal::server over `shared` for `seconds` (closed, then
/// open loop) while a publisher republishes fx.next over fx.full; checks
/// the served answers and fills the portal.*, net.*, gen.* and
/// live-publish layers.
void measure_served(opwat::serve::shared_catalog& shared, const fixture& fx, std::uint64_t seed,
                    double seconds, tracer& pub_tr, report& rep, layer_values& lv);

}  // namespace perfbench
