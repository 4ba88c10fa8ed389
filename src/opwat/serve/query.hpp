// Composable query API over the serve catalog — the §9 portal's query
// surface ("by IXP, member and location") as a fluent builder:
//
//   const auto remote_at_x = serve::query(cat)
//                                .epoch("2018-04")
//                                .at_ixp("IXP-7 (Frankfurt)")
//                                .cls(infer::peering_class::remote)
//                                .by_step()
//                                .top(3)
//                                .group_counts();
//
// Filters: IXP (by name or world id), member ASN, member metro, class,
// evidence step, RTT range.  Aggregations: count() (index-accelerated
// when the filter shape allows), group_counts() (group-by IXP / ASN /
// metro / class / step), rtt_ecdf().  Row retrieval: rows() with
// deterministic sort and pagination.
//
// Execution: queries run on the vectorized batch engine
// (opwat/serve/exec.hpp — selection vectors, zone-map block skipping,
// permutation-index member lookups, partial top-k selection) by
// default.  engine(exec::mode::reference) switches to the retained
// row-at-a-time evaluator, which is the byte-identity oracle: both
// engines return identical bytes for every query, pinned by
// tests/test_exec.cpp and the CI bench result-diff gate.
//
// Determinism guarantees (tests/test_serve.cpp pins them):
//   - rows() returns canonical epoch order (IXPs in pipeline-scope
//     order, interfaces in merged-view order) unless sort_by_rtt() is
//     set, which orders by (RTT, canonical index) with unmeasured rows
//     last;
//   - page(o, l) is a pure window over that order, so adjacent pages
//     tile the full result with no gaps or overlaps;
//   - group_counts() orders by (count desc, key asc).
//
// Cross-epoch diffs — the longitudinal §9 view — are a free function:
// diff_epochs(cat, "2018-04", "2018-05") lists appeared / disappeared /
// reclassified interfaces between two snapshots.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "opwat/serve/catalog.hpp"
#include "opwat/serve/exec.hpp"

namespace opwat::serve {

/// One ECDF point: cumulative rows with RTT <= upper_ms.
struct ecdf_point {
  double upper_ms = 0.0;
  std::size_t cum_count = 0;
  double fraction = 0.0;  ///< cum_count / measured rows in the selection
};

class query {
 public:
  explicit query(const catalog& cat) : cat_(&cat) {}

  /// Selects the epoch by label (default: the most recently ingested).
  query& epoch(std::string_view label);
  /// Filters to one IXP, by dictionary name or world id.  Unknown names
  /// and ids throw std::invalid_argument immediately (typo guard).
  query& at_ixp(std::string_view name);
  query& at_ixp(world::ixp_id id);
  /// Filters to one member ASN.
  query& member(net::asn a);
  /// Filters by the member AS's home metro.  Unknown metro names throw.
  query& metro(std::string_view name);
  query& cls(infer::peering_class c);
  /// Filters to decided rows whose evidence is `s`.
  query& step(infer::method_step s);
  /// Keeps measured rows with lo_ms <= RTT <= hi_ms.  NaN bounds throw
  /// std::invalid_argument immediately (typo guard).
  query& rtt_between(double lo_ms, double hi_ms);

  // Group-by shape for group_counts().
  query& by_ixp();
  query& by_asn();
  query& by_metro();
  query& by_class();
  query& by_step();

  /// Orders rows() by RTT (unmeasured rows last, canonical tie-break).
  query& sort_by_rtt(bool ascending = true);
  /// Keeps the first k rows / groups.
  query& top(std::size_t k);
  /// Deterministic pagination window over the sorted row order.
  query& page(std::size_t offset, std::size_t limit);

  /// Selects the execution engine (default: exec::mode::vectorized).
  /// The reference evaluator is the retained row-at-a-time scan — every
  /// result is byte-identical, it is just slower; tests and the CI
  /// bench gate diff the two.
  query& engine(exec::mode m);
  /// Accumulates scan accounting (rows scanned / skipped, blocks
  /// skipped) of subsequent executions into *st.  Vectorized engine
  /// only; pass nullptr to stop collecting.
  query& collect_stats(exec::stats* st);

  /// Matching row count.  Uses the per-(IXP, class) / per-(IXP, step)
  /// epoch indexes when the filter shape allows, scanning otherwise.
  [[nodiscard]] std::size_t count() const;
  /// Matching rows, sorted and paginated as configured.
  [[nodiscard]] std::vector<iface_row> rows() const;
  /// Group-by aggregation (requires one by_*() call).
  [[nodiscard]] std::vector<group_count> group_counts() const;
  /// Equal-width RTT ECDF over the measured rows of the selection.
  [[nodiscard]] std::vector<ecdf_point> rtt_ecdf(std::size_t buckets = 10) const;

 private:
  enum class group_key : std::uint8_t { none, ixp, asn, metro, cls, step };

  [[nodiscard]] const serve::epoch& resolve_epoch() const;
  [[nodiscard]] exec::predicates predicates() const;
  // Retained row-at-a-time reference evaluator (exec::mode::reference).
  [[nodiscard]] bool matches(const serve::epoch& ep, std::size_t i) const;
  /// Row indices of the selection, in canonical / sorted order.
  [[nodiscard]] std::vector<std::size_t> matching(const serve::epoch& ep) const;
  template <typename Fn>
  void for_each_match(const serve::epoch& ep, Fn&& fn) const;
  [[nodiscard]] std::vector<group_count> reference_groups(const serve::epoch& ep) const;

  const catalog* cat_;
  std::optional<std::string> epoch_label_;
  std::optional<ixp_ref> ixp_;
  std::optional<std::uint32_t> asn_;
  std::optional<metro_ref> metro_;
  std::optional<infer::peering_class> cls_;
  std::optional<infer::method_step> step_;
  std::optional<std::pair<double, double>> rtt_range_;
  group_key group_ = group_key::none;
  bool sort_rtt_ = false;
  bool sort_asc_ = true;
  std::size_t offset_ = 0;
  std::optional<std::size_t> limit_;
  exec::mode mode_ = exec::mode::vectorized;
  exec::stats* stats_ = nullptr;
};

/// An interface whose class changed between two epochs.
struct reclassification {
  iface_row before;
  iface_row after;
};

/// Cross-epoch diff: the longitudinal view of two snapshots.  Matching
/// is by (world IXP id, interface IP); `appeared` and `reclassified`
/// follow the canonical order of `to`, `disappeared` of `from`.
struct epoch_diff {
  std::string from;
  std::string to;
  std::vector<iface_row> appeared;
  std::vector<iface_row> disappeared;
  std::vector<reclassification> reclassified;
  /// Per-class tally of `appeared`, filled while the diff is built so
  /// appeared_of() is O(1) (the longitudinal study calls it per month
  /// per class).
  std::array<std::size_t, infer::k_n_peering_classes> appeared_by_class{};

  /// Appeared rows carrying class `c` — the per-class join count the
  /// longitudinal study (eval::run_longitudinal_study) aggregates.
  [[nodiscard]] std::size_t appeared_of(infer::peering_class c) const noexcept {
    return appeared_by_class[static_cast<std::size_t>(c)];
  }
};

/// Diffs two ingested epochs with one sort-merge pass per block pair
/// over the (IXP, IP)-sorted permutation indexes; throws
/// std::invalid_argument for unknown labels.
[[nodiscard]] epoch_diff diff_epochs(const catalog& cat, std::string_view from,
                                     std::string_view to);

/// The retained ordered-container reference implementation of
/// diff_epochs — the byte-identity oracle the sort-merge join is
/// pinned against (tests/test_exec.cpp, CI bench result diff).
[[nodiscard]] epoch_diff diff_epochs_reference(const catalog& cat,
                                               std::string_view from,
                                               std::string_view to);

}  // namespace opwat::serve
