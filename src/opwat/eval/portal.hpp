// Portal snapshot exporter — the paper's "Prototype and Portal" (§9):
// the authors publish monthly snapshots of their inferences and visualize
// the geographical footprint of IXPs and their members.  This module
// renders one catalog epoch into the equivalent machine-readable JSON
// snapshot: per IXP, its facilities (with coordinates) and every member
// interface with its inferred class, the evidence step, and the measured
// minimum RTT.
//
// The renderer reads ONLY the serve catalog (opwat/serve/catalog.hpp):
// ingest a pipeline_result as a labelled epoch first, then render it.
#pragma once

#include <string>
#include <string_view>

#include "opwat/serve/catalog.hpp"

namespace opwat::eval {

struct portal_options {
  bool include_facilities = true;
  bool include_interfaces = true;
};

/// Serializes one ingested epoch of the catalog; the snapshot carries
/// the epoch's label (e.g. "2018-04" — the paper publishes monthly).
/// Throws std::invalid_argument for unknown epoch labels.
[[nodiscard]] std::string portal_snapshot_json(const serve::catalog& cat,
                                               std::string_view epoch_label,
                                               const portal_options& opt = {});

}  // namespace opwat::eval
