// One-call experiment scenario: ground-truth world -> noisy DB snapshots
// -> merged view -> vantage points -> traceroute corpus -> (optionally)
// the inference pipeline.  Every bench binary and example builds on this
// so that all reproduced tables/figures share one consistent ecosystem.
#pragma once

#include <vector>

#include "opwat/db/ip2as.hpp"
#include "opwat/db/merge.hpp"
#include "opwat/db/snapshot.hpp"
#include "opwat/eval/validation.hpp"
#include "opwat/infer/engine.hpp"
#include "opwat/measure/latency_model.hpp"
#include "opwat/measure/traceroute.hpp"
#include "opwat/measure/vantage.hpp"
#include "opwat/world/generator.hpp"

namespace opwat::eval {

struct scenario_config {
  world::gen_config world{};
  std::uint64_t db_seed = 11;
  std::uint64_t vp_seed = 23;
  std::uint64_t latency_seed = 31;
  std::uint64_t trace_seed = 47;
  measure::vp_config vps{};
  measure::traceroute_config traceroute{};
  /// The RIPE Atlas corpus analogue: most connected ASes host a probe at
  /// some point over the collection window (the paper: 3.15 B paths).
  std::size_t traceroute_sources = 4000;
  std::size_t targets_per_source = 30;
  validation_config validation{};
  infer::pipeline_config pipeline{};
  /// Scope: the N largest IXPs that have at least one alive VP ("the 30
  /// largest IXPs with usable VPs", §6).
  std::size_t top_n_ixps = 30;
};

struct scenario {
  scenario_config cfg;
  world::world w;
  db::merged_view view;
  db::ip2as prefix2as;
  measure::latency_model lat{0};
  std::vector<measure::vantage_point> vps;
  std::vector<measure::trace> traces;
  std::vector<world::ixp_id> scope;
  validation_data validation;

  /// Builds everything except the pipeline run.
  [[nodiscard]] static scenario build(const scenario_config& cfg);

  /// The scenario's data, bundled for an engine run (spans are valid
  /// while the scenario lives).
  [[nodiscard]] infer::engine_inputs inputs() const {
    return {w, view, prefix2as, lat, vps, traces, scope};
  }

  /// Runs the inference engine with the scenario's (or an overridden)
  /// config, or with a caller-assembled engine.
  [[nodiscard]] infer::pipeline_result run_inference() const;
  [[nodiscard]] infer::pipeline_result run_inference(
      const infer::pipeline_config& override_cfg) const;
  /// Same, on the parallel backend with `threads` workers (0 = hardware
  /// concurrency).  Bit-identical to the serial run of the same config.
  [[nodiscard]] infer::pipeline_result run_inference_parallel(
      std::size_t threads = 0) const;
  [[nodiscard]] infer::pipeline_result run_inference(
      const infer::inference_engine& eng) const {
    return eng.run(inputs());
  }

  /// A traceroute engine bound to this scenario (valid while it lives).
  [[nodiscard]] measure::traceroute_engine make_traceroute_engine() const {
    return measure::traceroute_engine{w, lat, cfg.traceroute};
  }

  /// Member interface count per IXP according to the merged view.
  [[nodiscard]] std::size_t ixp_size(world::ixp_id x) const {
    return view.interfaces_of_ixp(x).size();
  }
};

/// The default full-size scenario used by the benches (~60 IXPs, ~3200
/// ASes) and a small one for tests.
[[nodiscard]] scenario_config default_scenario_config();
[[nodiscard]] scenario_config small_scenario_config(std::uint64_t seed = 7);

}  // namespace opwat::eval
