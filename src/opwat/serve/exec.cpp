#include "opwat/serve/exec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>

#include "opwat/net/ipv4.hpp"

namespace opwat::serve::exec {

namespace {

/// Rows per selection-vector batch.  Large enough to amortize the
/// per-chunk bookkeeping, small enough that the reused index buffer
/// stays cache-resident.
constexpr std::size_t k_chunk = 4096;

/// Fills `out` with the indices of [c0, c1) that satisfy `pred` — the
/// branch-predictable "first active filter" loop (the index is written
/// unconditionally; the cursor advances only on a match).
template <typename Pred>
std::size_t fill_if(std::size_t c0, std::size_t c1, std::uint32_t* out, Pred pred) {
  std::size_t n = 0;
  for (std::size_t i = c0; i < c1; ++i) {
    out[n] = static_cast<std::uint32_t>(i);
    n += pred(i) ? std::size_t{1} : std::size_t{0};
  }
  return n;
}

/// Compacts an existing selection in place, keeping rows that satisfy
/// `pred` — the loop every further active filter runs.
template <typename Pred>
std::size_t keep_if(std::uint32_t* sel, std::size_t n, Pred pred) {
  std::size_t out = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto i = sel[k];
    sel[out] = i;
    out += pred(i) ? std::size_t{1} : std::size_t{0};
  }
  return out;
}

/// The single definition of the scan predicates (everything except the
/// IXP block restriction and the ASN equality, which the member path
/// resolves through the permutation index): invokes `apply` once per
/// active filter with its row predicate, in fixed order.  Both the
/// fill-then-compact chunk pipeline and the compact-only candidate
/// path consume this, so the two can never drift apart.
template <typename Apply>
void for_each_scan_predicate(const epoch& ep, const predicates& p, Apply&& apply) {
  constexpr auto k_unknown = static_cast<std::uint8_t>(infer::peering_class::unknown);
  if (p.has_metro) {
    const auto* metro = ep.metro_col().data();
    apply([metro, v = p.metro](std::size_t i) { return metro[i] == v; });
  }
  if (p.has_cls) {
    const auto* cls = ep.cls_col().data();
    apply([cls, v = p.cls](std::size_t i) { return cls[i] == v; });
  }
  if (p.has_step) {
    const auto* cls = ep.cls_col().data();
    const auto* step = ep.step_col().data();
    apply([cls, step, v = p.step](std::size_t i) {
      return cls[i] != k_unknown && step[i] == v;
    });
  }
  if (p.has_rtt) {
    // NaN fails both comparisons, so unmeasured rows drop out with no
    // isnan branch.
    const auto* rtt = ep.rtt_col().data();
    apply([rtt, lo = p.rtt_lo, hi = p.rtt_hi](std::size_t i) {
      return rtt[i] >= lo && rtt[i] <= hi;
    });
  }
}

/// Compacts the candidate rows in `sel[0..n)` through every active
/// scan predicate, in place.
std::size_t apply_rest(const epoch& ep, const predicates& p, std::uint32_t* sel,
                       std::size_t n) {
  for_each_scan_predicate(ep, p, [&](auto pred) { n = keep_if(sel, n, pred); });
  return n;
}

/// One chunk through the predicate pipeline: fills/compacts `buf` with
/// the matching indices of [c0, c1).  `whole == true` means no scan
/// filter was active and the entire chunk matches (buf untouched).
struct chunk_result {
  std::size_t n = 0;
  bool whole = false;
};

chunk_result filter_chunk(const epoch& ep, const predicates& p, std::size_t c0,
                          std::size_t c1, std::uint32_t* buf) {
  std::size_t n = 0;
  bool filled = false;
  const auto apply = [&](auto pred) {
    n = filled ? keep_if(buf, n, pred) : fill_if(c0, c1, buf, pred);
    filled = true;
  };
  if (p.has_asn) {
    const auto* asn = ep.asn_col().data();
    apply([asn, v = p.asn](std::size_t i) { return asn[i] == v; });
  }
  for_each_scan_predicate(ep, p, apply);
  return {n, !filled};
}

/// Matching-row count over [begin, end), chunk at a time — the kernel
/// behind count_matches' per-block loop.
std::size_t count_range(const epoch& ep, const predicates& p, std::size_t begin,
                        std::size_t end) {
  std::array<std::uint32_t, k_chunk> buf;  // reused across chunks
  std::size_t n = 0;
  for (std::size_t c0 = begin; c0 < end; c0 += k_chunk) {
    const std::size_t c1 = std::min(end, c0 + k_chunk);
    const auto r = filter_chunk(ep, p, c0, c1, buf.data());
    n += r.whole ? c1 - c0 : r.n;
  }
  return n;
}

}  // namespace

bool zone_skip(const epoch::block& b, const predicates& p) {
  if (b.begin == b.end) return true;
  const auto& z = b.zone;
  if (p.has_asn && (p.asn < z.asn_min || p.asn > z.asn_max)) return true;
  if (p.has_metro && !z.metro_present(p.metro)) return true;
  if (p.has_cls && ((z.cls_mask >> p.cls) & 1u) == 0) return true;
  if (p.has_step && ((z.step_mask >> p.step) & 1u) == 0) return true;
  if (p.has_rtt &&
      (!z.any_measured_rtt || p.rtt_hi < z.rtt_min_ms || p.rtt_lo > z.rtt_max_ms))
    return true;
  return false;
}

std::size_t scan_range(const epoch& ep, std::size_t begin, std::size_t end,
                       const predicates& p, sel_vector& sel, std::size_t cap) {
  std::array<std::uint32_t, k_chunk> buf;  // reused across chunks
  std::size_t examined = 0;
  for (std::size_t c0 = begin; c0 < end && sel.size() < cap; c0 += k_chunk) {
    const std::size_t c1 = std::min(end, c0 + k_chunk);
    examined += c1 - c0;
    const auto r = filter_chunk(ep, p, c0, c1, buf.data());
    if (r.whole) {
      for (std::size_t i = c0; i < c1; ++i) sel.push_back(static_cast<std::uint32_t>(i));
    } else {
      sel.insert(sel.end(), buf.data(), buf.data() + r.n);
    }
  }
  return examined;
}

namespace {

/// The ASN permutation run for `p.asn`, restricted to the at_ixp()
/// block when one is set: [lo, hi) of row indices, ascending (i.e.
/// canonical order).  Empty when the block is absent from the epoch.
std::pair<const std::uint32_t*, const std::uint32_t*> asn_run(const epoch& ep,
                                                              const predicates& p) {
  const auto& perm = ep.asn_perm();
  const auto* asn = ep.asn_col().data();
  auto lo = std::lower_bound(
      perm.begin(), perm.end(), p.asn,
      [&](std::uint32_t r, std::uint32_t v) { return asn[r] < v; });
  auto hi = std::upper_bound(
      lo, perm.end(), p.asn,
      [&](std::uint32_t v, std::uint32_t r) { return v < asn[r]; });
  if (p.has_ixp) {
    const auto* b = ep.block_of(p.ixp);
    if (!b) return {nullptr, nullptr};
    // The run is ascending by row index; restrict it to the block's
    // row range with two more binary searches.
    lo = std::lower_bound(lo, hi, static_cast<std::uint32_t>(b->begin));
    hi = std::lower_bound(lo, hi, static_cast<std::uint32_t>(b->end));
  }
  return {lo == hi ? nullptr : &*lo, lo == hi ? nullptr : &*lo + (hi - lo)};
}

}  // namespace

sel_vector collect(const epoch& ep, const predicates& p, std::size_t cap, stats* st) {
  sel_vector sel;
  if (ep.rows() == 0 || cap == 0) return sel;

  // member() point lookup: the ASN permutation index narrows the
  // candidate set to one contiguous run, already in canonical order.
  if (p.has_asn) {
    const auto [lo, hi] = asn_run(ep, p);
    sel.assign(lo, hi);
    const auto candidates = sel.size();
    sel.resize(apply_rest(ep, p, sel.data(), sel.size()));
    if (st) {
      st->rows_scanned += candidates;
      st->rows_skipped += ep.rows() - candidates;
    }
    return sel;
  }

  // Block-scan path.  Accounting invariant (member path above included):
  // rows_scanned + rows_skipped == ep.rows() per execution — whatever a
  // predicate loop did not touch (zone-map pruned, outside the
  // at_ixp() block, or past an early-exit cap) counts as skipped.
  std::size_t scanned = 0;
  const auto scan_block = [&](const epoch::block& b) {
    if (zone_skip(b, p)) {
      if (st) ++st->blocks_skipped;
      return;
    }
    scanned += scan_range(ep, b.begin, b.end, p, sel, cap);
  };

  if (p.has_ixp) {
    if (const auto* b = ep.block_of(p.ixp)) scan_block(*b);
  } else {
    for (const auto& b : ep.blocks()) {
      scan_block(b);
      if (sel.size() >= cap) break;
    }
  }
  if (st) {
    st->rows_scanned += scanned;
    st->rows_skipped += ep.rows() - scanned;
  }
  return sel;
}

std::size_t count_matches(const epoch& ep, const predicates& p, stats* st) {
  if (ep.rows() == 0) return 0;
  std::array<std::uint32_t, k_chunk> buf;  // reused across chunks

  if (p.has_asn) {
    const auto [lo, hi] = asn_run(ep, p);
    const auto candidates = static_cast<std::size_t>(hi - lo);
    std::size_t n = 0;
    for (const auto* c0 = lo; c0 != hi;) {
      const auto m = std::min<std::size_t>(k_chunk, static_cast<std::size_t>(hi - c0));
      std::copy(c0, c0 + m, buf.data());
      n += apply_rest(ep, p, buf.data(), m);
      c0 += m;
    }
    if (st) {
      st->rows_scanned += candidates;
      st->rows_skipped += ep.rows() - candidates;
    }
    return n;
  }

  std::size_t n = 0;
  std::size_t scanned = 0;
  const auto count_block = [&](const epoch::block& b) {
    if (zone_skip(b, p)) {
      if (st) ++st->blocks_skipped;
      return;
    }
    scanned += b.end - b.begin;
    n += count_range(ep, p, b.begin, b.end);
  };
  if (p.has_ixp) {
    if (const auto* b = ep.block_of(p.ixp)) count_block(*b);
  } else {
    for (const auto& b : ep.blocks()) count_block(b);
  }
  if (st) {
    st->rows_scanned += scanned;
    st->rows_skipped += ep.rows() - scanned;
  }
  return n;
}

namespace {

/// Group-by state: one dense counter per interned ref for the
/// dictionary dimensions, a hash only for raw ASN values.
struct group_acc {
  std::vector<std::size_t> dense;
  std::unordered_map<std::uint32_t, std::size_t> hash;
};

group_acc make_acc(const catalog& cat, group_dim dim) {
  group_acc a;
  switch (dim) {
    case group_dim::ixp: a.dense.assign(cat.ixps().size(), 0); break;
    case group_dim::asn: break;
    case group_dim::metro:
      // One dense slot per interned metro plus a trailing slot for
      // unmapped rows.
      a.dense.assign(cat.metros().size() + 1, 0);
      break;
    case group_dim::cls: a.dense.assign(infer::k_n_peering_classes, 0); break;
    case group_dim::step: a.dense.assign(infer::k_n_method_steps, 0); break;
  }
  return a;
}

/// Accumulates the selected rows `idx[0..n)` into `a`.
void accumulate_sel(group_acc& a, const epoch& ep, group_dim dim,
                    const std::uint32_t* idx, std::size_t n) {
  switch (dim) {
    case group_dim::ixp: {
      const auto* col = ep.ixp_col().data();
      for (std::size_t k = 0; k < n; ++k) ++a.dense[col[idx[k]]];
      break;
    }
    case group_dim::asn: {
      const auto* col = ep.asn_col().data();
      for (std::size_t k = 0; k < n; ++k) ++a.hash[col[idx[k]]];
      break;
    }
    case group_dim::metro: {
      const auto unmapped = a.dense.size() - 1;
      const auto* col = ep.metro_col().data();
      for (std::size_t k = 0; k < n; ++k) {
        const auto m = col[idx[k]];
        ++a.dense[m == k_no_metro ? unmapped : m];
      }
      break;
    }
    case group_dim::cls: {
      const auto* col = ep.cls_col().data();
      for (std::size_t k = 0; k < n; ++k) ++a.dense[col[idx[k]]];
      break;
    }
    case group_dim::step: {
      const auto* col = ep.step_col().data();
      for (std::size_t k = 0; k < n; ++k) ++a.dense[col[idx[k]]];
      break;
    }
  }
}

/// Materializes display keys for the non-empty buckets and merges key
/// collisions — the output-shaping half of group_over.
std::vector<group_count> emit_groups(const catalog& cat, const group_acc& acc,
                                     group_dim dim) {
  std::vector<group_count> out;

  const auto emit_dense = [&](auto&& key_of) {
    for (std::size_t r = 0; r < acc.dense.size(); ++r)
      if (acc.dense[r] != 0) out.push_back({key_of(r), acc.dense[r]});
  };

  switch (dim) {
    case group_dim::ixp:
      emit_dense([&](std::size_t r) { return cat.ixps()[r].name; });
      break;
    case group_dim::asn:
      out.reserve(acc.hash.size());
      // opwat-lint: allow(unordered-iter): buckets are sorted by key (and
      // key-collisions merged) below before anything is returned
      for (const auto& [v, n] : acc.hash)
        out.push_back({net::to_string(net::asn{v}), n});
      break;
    case group_dim::metro: {
      const auto unmapped = acc.dense.size() - 1;
      // The empty-name guard mirrors the reference's metro_name()
      // fallback; interning never produces an empty metro name, so it
      // is structural parity, not a reachable branch.
      emit_dense([&](std::size_t r) {
        if (r == unmapped || cat.metros()[r].empty()) return std::string{"(unmapped)"};
        return cat.metros()[r];
      });
      break;
    }
    case group_dim::cls:
      emit_dense([](std::size_t r) {
        return std::string{to_string(static_cast<infer::peering_class>(r))};
      });
      break;
    case group_dim::step:
      emit_dense([](std::size_t r) {
        return std::string{to_string(static_cast<infer::method_step>(r))};
      });
      break;
  }

  // Merge buckets whose display keys collide (e.g. two dictionary
  // entries sharing a name) so the result matches a string-keyed
  // accumulator exactly.
  std::sort(out.begin(), out.end(),
            [](const group_count& a, const group_count& b) { return a.key < b.key; });
  std::size_t w = 0;
  for (std::size_t r = 0; r < out.size(); ++r) {
    if (w > 0 && out[w - 1].key == out[r].key) {
      out[w - 1].count += out[r].count;
    } else {
      if (w != r) out[w] = std::move(out[r]);
      ++w;
    }
  }
  out.resize(w);
  return out;
}

}  // namespace

std::vector<group_count> group_over(const catalog& cat, const epoch& ep,
                                    const sel_vector& sel, group_dim dim) {
  auto acc = make_acc(cat, dim);
  accumulate_sel(acc, ep, dim, sel.data(), sel.size());
  return emit_groups(cat, acc, dim);
}

void sort_selection_by_rtt(const epoch& ep, sel_vector& sel, bool ascending,
                           std::size_t offset, std::optional<std::size_t> limit) {
  const auto* rtt = ep.rtt_col().data();
  const auto cmp = [&](std::uint32_t a, std::uint32_t b) {
    const double ra = rtt[a], rb = rtt[b];
    const bool ma = !std::isnan(ra), mb = !std::isnan(rb);
    if (ma != mb) return ma;  // unmeasured rows last either way
    if (!ma) return a < b;    // both unmeasured: canonical order
    if (ra != rb) return ascending ? ra < rb : ra > rb;
    return a < b;  // equal RTTs: canonical order
  };
  if (limit) {
    const std::size_t want = std::min(sel.size(), offset + *limit);
    if (want == 0) {
      sel.clear();
      return;
    }
    if (want < sel.size()) {
      // Partition the `want` page-visible rows to the front, then sort
      // only those — rows past the page are never compared again.
      std::nth_element(sel.begin(), sel.begin() + static_cast<std::ptrdiff_t>(want),
                       sel.end(), cmp);
      sel.resize(want);
    }
  }
  std::sort(sel.begin(), sel.end(), cmp);
}

}  // namespace opwat::serve::exec
