// Vectorized, batch-at-a-time execution kernels for the serve query
// layer — the hot path behind the §9 portal's interactive lookups.
//
// Design (opwat/serve/query.hpp is the fluent surface on top):
//
//   - Predicates evaluate over column chunks into reusable *selection
//     vectors*: one tight, branch-predictable loop per active filter
//     instead of a fused branchy per-row `matches()` with optional
//     checks.  The first active filter fills the chunk buffer from the
//     row range; each further filter compacts it in place.
//   - *Zone maps* (epoch::block::zone_map: min/max RTT and ASN, class
//     and evidence-step masks, a metro bitset) prove for many blocks
//     that no row can match, so `rtt_between`/`member`/`metro`/`cls`
//     scans skip whole IXP blocks without touching rows.
//   - `member()` point lookups binary-search the per-epoch ASN
//     permutation index: one ASN's rows are a contiguous run that is
//     already in canonical order, so the lookup is sub-linear.
//   - Group-by accumulates into dense integer-keyed arrays over
//     interned refs (ixp/metro/class/step) and a hash on raw ASN
//     values; display strings materialize per output GROUP, never per
//     row.
//   - `sort_by_rtt().top(k)` / `page()` run std::nth_element-based
//     partial selection with the canonical-order tie-break — rows that
//     cannot appear in the requested page are never sorted.
//
// Everything here is a free function over an immutable epoch — no
// state, no locks — so the kernels run unsynchronized on
// shared_catalog snapshots.  Every result is byte-identical to the
// row-at-a-time reference evaluator retained in query.cpp
// (exec::mode::reference); tests/test_exec.cpp pins the equivalence
// across randomized filter x group-by x sort x pagination specs.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "opwat/serve/catalog.hpp"

namespace opwat::serve {

/// One group-by bucket: display key and row count.
struct group_count {
  std::string key;
  std::size_t count = 0;
};

namespace exec {

/// Execution engine selector for serve::query: the vectorized kernels
/// (default) or the retained row-at-a-time reference evaluator — the
/// byte-identity oracle the tests and the CI bench gate compare
/// against.
enum class mode : std::uint8_t { vectorized, reference };

/// Scan accounting for one query execution (bench_catalog_query
/// reports rows scanned vs rows skipped per query shape).  Invariant:
/// rows_scanned + rows_skipped == the epoch's row count per execution
/// — every row a predicate loop did not touch (zone-map pruned,
/// outside the permutation-index run or the at_ixp() block, past an
/// early-exit cap) counts as skipped, whichever index pruned it.
struct stats {
  /// Rows a predicate loop actually touched.
  std::size_t rows_scanned = 0;
  /// Rows pruned without being touched.
  std::size_t rows_skipped = 0;
  /// Whole blocks pruned by zone maps specifically.
  std::size_t blocks_skipped = 0;
};

/// Decoded filter set — plain flags and values, no optionals on the
/// hot path.
struct predicates {
  bool has_ixp = false;
  ixp_ref ixp = 0;
  bool has_asn = false;
  std::uint32_t asn = 0;
  bool has_metro = false;
  metro_ref metro = 0;
  bool has_cls = false;
  std::uint8_t cls = 0;
  bool has_step = false;
  std::uint8_t step = 0;
  bool has_rtt = false;
  double rtt_lo = 0.0;
  double rtt_hi = 0.0;
};

/// Selection vector: matching row indices in canonical (ascending)
/// order.
using sel_vector = std::vector<std::uint32_t>;

inline constexpr std::size_t k_no_cap = std::numeric_limits<std::size_t>::max();

/// True when the block's zone map proves no row in it can match `p`.
[[nodiscard]] bool zone_skip(const epoch::block& b, const predicates& p);

/// Appends the matching rows of [begin, end) to `sel`, chunk at a
/// time.  Stops after the first chunk that brings `sel` to `cap`
/// selected rows (the collected prefix is exact).  Returns the number
/// of rows examined.
std::size_t scan_range(const epoch& ep, std::size_t begin, std::size_t end,
                       const predicates& p, sel_vector& sel,
                       std::size_t cap = k_no_cap);

/// Full selection for `p` over `ep`: zone-map block skipping, the ASN
/// permutation fast path for member() lookups, and early exit once
/// `cap` rows are collected (the prefix is exact canonical order).
[[nodiscard]] sel_vector collect(const epoch& ep, const predicates& p,
                                 std::size_t cap = k_no_cap, stats* st = nullptr);

/// collect(...).size() without materializing a selection vector — the
/// count() hot path runs the same kernels over the reused chunk buffer
/// and accumulates only the integer.
[[nodiscard]] std::size_t count_matches(const epoch& ep, const predicates& p,
                                        stats* st = nullptr);

/// Group-by dimension (mirrors query's by_*() calls).
enum class group_dim : std::uint8_t { ixp, asn, metro, cls, step };

/// Accumulates the selection into dense integer-keyed counters (hash
/// only for raw ASNs) and materializes display keys for the non-empty
/// buckets.  Buckets with identical display keys are merged (two
/// dictionary entries can share a name).  The result is keyed and
/// summed but NOT in final order — the caller applies the
/// (count desc, key asc) ordering and pagination.
[[nodiscard]] std::vector<group_count> group_over(const catalog& cat, const epoch& ep,
                                                  const sel_vector& sel, group_dim dim);

/// Orders `sel` by (RTT, canonical index) with unmeasured rows last —
/// a strict total order, so partial selection reproduces the stable
/// sort exactly.  When offset+limit bounds the page below the
/// selection size, an nth_element partition drops every row that
/// cannot appear in the page before anything is sorted.
void sort_selection_by_rtt(const epoch& ep, sel_vector& sel, bool ascending,
                           std::size_t offset, std::optional<std::size_t> limit);

}  // namespace exec

}  // namespace opwat::serve
