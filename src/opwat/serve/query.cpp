#include "opwat/serve/query.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>

namespace opwat::serve {

// --- builder -----------------------------------------------------------------

query& query::epoch(std::string_view label) {
  epoch_label_ = std::string{label};
  return *this;
}

query& query::at_ixp(std::string_view name) {
  const auto ref = cat_->ixp_by_name(name);
  if (!ref) throw std::invalid_argument("query: unknown IXP name: " + std::string{name});
  ixp_ = *ref;
  return *this;
}

query& query::at_ixp(world::ixp_id id) {
  const auto ref = cat_->ixp_by_id(id);
  if (!ref)
    throw std::invalid_argument("query: IXP id not in catalog: " + std::to_string(id));
  ixp_ = *ref;
  return *this;
}

query& query::member(net::asn a) {
  asn_ = a.value;
  return *this;
}

query& query::metro(std::string_view name) {
  const auto ref = cat_->metro_by_name(name);
  if (!ref) throw std::invalid_argument("query: unknown metro: " + std::string{name});
  metro_ = *ref;
  return *this;
}

query& query::cls(infer::peering_class c) {
  cls_ = c;
  return *this;
}

query& query::step(infer::method_step s) {
  step_ = s;
  return *this;
}

query& query::rtt_between(double lo_ms, double hi_ms) {
  // NaN bounds would mean different things to the two engines' range
  // checks; reject them at the builder like every other typo guard.
  if (std::isnan(lo_ms) || std::isnan(hi_ms))
    throw std::invalid_argument("query: rtt_between bounds must not be NaN");
  rtt_range_ = {lo_ms, hi_ms};
  return *this;
}

query& query::by_ixp() { group_ = group_key::ixp; return *this; }
query& query::by_asn() { group_ = group_key::asn; return *this; }
query& query::by_metro() { group_ = group_key::metro; return *this; }
query& query::by_class() { group_ = group_key::cls; return *this; }
query& query::by_step() { group_ = group_key::step; return *this; }

query& query::sort_by_rtt(bool ascending) {
  sort_rtt_ = true;
  sort_asc_ = ascending;
  return *this;
}

query& query::top(std::size_t k) {
  limit_ = k;
  return *this;
}

query& query::page(std::size_t offset, std::size_t limit) {
  offset_ = offset;
  limit_ = limit;
  return *this;
}

query& query::engine(exec::mode m) {
  mode_ = m;
  return *this;
}

query& query::collect_stats(exec::stats* st) {
  stats_ = st;
  return *this;
}

// --- shared execution helpers ------------------------------------------------

namespace {

/// Final group ordering + pagination, shared by both engines:
/// (count desc, key asc), then the offset/limit window.  Keys are
/// unique by the time this runs, so plain sort is deterministic.
std::vector<group_count> finalize_groups(std::vector<group_count> out,
                                         std::size_t offset,
                                         const std::optional<std::size_t>& limit) {
  std::stable_sort(out.begin(), out.end(),
                   [](const group_count& a, const group_count& b) {
                     if (a.count != b.count) return a.count > b.count;
                     return a.key < b.key;
                   });
  if (offset || limit) {
    const auto begin = std::min(offset, out.size());
    const auto end = limit ? std::min(out.size(), begin + *limit) : out.size();
    out = {out.begin() + static_cast<std::ptrdiff_t>(begin),
           out.begin() + static_cast<std::ptrdiff_t>(end)};
  }
  return out;
}

/// Equal-width ECDF binning over the gathered measured RTTs, shared by
/// both engines (identical bytes by construction).
std::vector<ecdf_point> ecdf_from(std::vector<double> rtts, std::size_t buckets) {
  std::vector<ecdf_point> out;
  if (rtts.empty()) return out;
  std::sort(rtts.begin(), rtts.end());
  const double lo = rtts.front(), hi = rtts.back();
  const double width = (hi - lo) / static_cast<double>(buckets);
  out.reserve(buckets);
  for (std::size_t b = 1; b <= buckets; ++b) {
    const double upper = b == buckets ? hi : lo + width * static_cast<double>(b);
    const auto cum = static_cast<std::size_t>(
        std::upper_bound(rtts.begin(), rtts.end(), upper) - rtts.begin());
    out.push_back({upper, cum,
                   static_cast<double>(cum) / static_cast<double>(rtts.size())});
  }
  out.back().cum_count = rtts.size();  // closed upper edge
  out.back().fraction = 1.0;
  return out;
}

}  // namespace

const serve::epoch& query::resolve_epoch() const {
  if (epoch_label_) return cat_->of(*epoch_label_);
  if (cat_->epoch_count() == 0) throw std::logic_error("query: catalog has no epochs");
  return cat_->at(static_cast<epoch_id>(cat_->epoch_count() - 1));
}

exec::predicates query::predicates() const {
  exec::predicates p;
  if (ixp_) {
    p.has_ixp = true;
    p.ixp = *ixp_;
  }
  if (asn_) {
    p.has_asn = true;
    p.asn = *asn_;
  }
  if (metro_) {
    p.has_metro = true;
    p.metro = *metro_;
  }
  if (cls_) {
    p.has_cls = true;
    p.cls = static_cast<std::uint8_t>(*cls_);
  }
  if (step_) {
    p.has_step = true;
    p.step = static_cast<std::uint8_t>(*step_);
  }
  if (rtt_range_) {
    p.has_rtt = true;
    p.rtt_lo = rtt_range_->first;
    p.rtt_hi = rtt_range_->second;
  }
  return p;
}

// --- reference engine (retained row-at-a-time evaluator) ---------------------

bool query::matches(const serve::epoch& ep, std::size_t i) const {
  if (ixp_ && ep.ixp_col()[i] != *ixp_) return false;
  if (asn_ && ep.asn_col()[i] != *asn_) return false;
  if (metro_ && ep.metro_col()[i] != *metro_) return false;
  if (cls_ && ep.cls_col()[i] != static_cast<std::uint8_t>(*cls_)) return false;
  if (step_) {
    if (ep.cls_col()[i] == static_cast<std::uint8_t>(infer::peering_class::unknown))
      return false;
    if (ep.step_col()[i] != static_cast<std::uint8_t>(*step_)) return false;
  }
  if (rtt_range_) {
    const double rtt = ep.rtt_col()[i];
    if (std::isnan(rtt) || rtt < rtt_range_->first || rtt > rtt_range_->second)
      return false;
  }
  return true;
}

template <typename Fn>
void query::for_each_match(const serve::epoch& ep, Fn&& fn) const {
  std::size_t begin = 0, end = ep.rows();
  if (ixp_) {
    const auto* b = ep.block_of(*ixp_);
    if (!b) return;
    begin = b->begin;
    end = b->end;
  }
  for (std::size_t i = begin; i < end; ++i)
    if (matches(ep, i)) fn(i);
}

std::vector<std::size_t> query::matching(const serve::epoch& ep) const {
  std::vector<std::size_t> idx;
  for_each_match(ep, [&](std::size_t i) { idx.push_back(i); });
  if (sort_rtt_) {
    const auto& rtt = ep.rtt_col();
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      const double ra = rtt[a], rb = rtt[b];
      const bool ma = !std::isnan(ra), mb = !std::isnan(rb);
      if (ma != mb) return ma;  // unmeasured rows last either way
      if (!ma) return false;    // both unmeasured: keep canonical order
      if (ra != rb) return sort_asc_ ? ra < rb : ra > rb;
      return false;  // equal RTTs: keep canonical order
    });
  }
  return idx;
}

std::vector<group_count> query::reference_groups(const serve::epoch& ep) const {
  const auto key_of = [&](std::size_t i) -> std::string {
    switch (group_) {
      case group_key::ixp: return cat_->ixps()[ep.ixp_col()[i]].name;
      case group_key::asn: return net::to_string(net::asn{ep.asn_col()[i]});
      case group_key::metro: {
        const auto m = ep.metro_col()[i];
        const auto name = cat_->metro_name(m);
        return name.empty() ? std::string{"(unmapped)"} : std::string{name};
      }
      case group_key::cls:
        return std::string{
            to_string(static_cast<infer::peering_class>(ep.cls_col()[i]))};
      case group_key::step:
        return std::string{
            to_string(static_cast<infer::method_step>(ep.step_col()[i]))};
      case group_key::none: break;
    }
    return {};
  };

  std::map<std::string, std::size_t> acc;
  for_each_match(ep, [&](std::size_t i) { ++acc[key_of(i)]; });

  std::vector<group_count> out;
  out.reserve(acc.size());
  for (auto& [key, n] : acc) out.push_back({key, n});
  return out;
}

// --- execution ---------------------------------------------------------------

std::size_t query::count() const {
  const auto& ep = resolve_epoch();

  if (mode_ == exec::mode::reference) {
    std::size_t n = 0;
    for_each_match(ep, [&](std::size_t) { ++n; });
    return n;
  }

  // Index fast paths: the shapes the per-block counters answer exactly.
  const bool scan_filters = asn_ || metro_ || rtt_range_;
  if (!scan_filters && !step_ && cls_) {
    if (ixp_) return ep.count(*ixp_, *cls_);
    return ep.total(*cls_);
  }
  if (!scan_filters && step_ && !cls_) {
    if (ixp_) return ep.contribution(*ixp_, *step_);
    std::size_t n = 0;
    for (const auto& b : ep.blocks()) n += b.by_step[static_cast<std::size_t>(*step_)];
    return n;
  }
  if (!scan_filters && !step_ && !cls_) {
    if (ixp_) {
      const auto* b = ep.block_of(*ixp_);
      return b ? b->end - b->begin : 0;
    }
    return ep.rows();
  }

  return exec::count_matches(ep, predicates(), stats_);
}

std::vector<iface_row> query::rows() const {
  const auto& ep = resolve_epoch();
  std::vector<iface_row> out;

  const auto window = [&](const auto& idx) {
    if (offset_ >= idx.size()) return;
    const auto end = limit_ ? std::min(idx.size(), offset_ + *limit_) : idx.size();
    out.reserve(end - offset_);
    for (std::size_t i = offset_; i < end; ++i) out.push_back(ep.row(idx[i]));
  };

  if (mode_ == exec::mode::reference) {
    window(matching(ep));
    return out;
  }

  // Without an RTT sort the result is a canonical-order prefix window,
  // so collection short-circuits once offset + limit matches are found.
  const auto cap =
      !sort_rtt_ && limit_ ? offset_ + *limit_ : exec::k_no_cap;
  auto sel = exec::collect(ep, predicates(), cap, stats_);
  if (sort_rtt_) exec::sort_selection_by_rtt(ep, sel, sort_asc_, offset_, limit_);
  window(sel);
  return out;
}

std::vector<group_count> query::group_counts() const {
  if (group_ == group_key::none)
    throw std::logic_error("query: group_counts() requires by_ixp/by_asn/by_metro/"
                           "by_class/by_step");
  const auto& ep = resolve_epoch();

  if (mode_ == exec::mode::reference)
    return finalize_groups(reference_groups(ep), offset_, limit_);

  const auto dim = [&] {
    switch (group_) {
      case group_key::ixp: return exec::group_dim::ixp;
      case group_key::asn: return exec::group_dim::asn;
      case group_key::metro: return exec::group_dim::metro;
      case group_key::cls: return exec::group_dim::cls;
      case group_key::step: break;
      case group_key::none: break;
    }
    return exec::group_dim::step;
  }();
  const auto sel = exec::collect(ep, predicates(), exec::k_no_cap, stats_);
  return finalize_groups(exec::group_over(*cat_, ep, sel, dim), offset_, limit_);
}

std::vector<ecdf_point> query::rtt_ecdf(std::size_t buckets) const {
  if (buckets == 0) throw std::invalid_argument("query: rtt_ecdf needs >= 1 bucket");
  const auto& ep = resolve_epoch();
  std::vector<double> rtts;
  if (mode_ == exec::mode::reference) {
    for_each_match(ep, [&](std::size_t i) {
      const double r = ep.rtt_col()[i];
      if (!std::isnan(r)) rtts.push_back(r);
    });
  } else {
    const auto sel = exec::collect(ep, predicates(), exec::k_no_cap, stats_);
    const auto* rtt = ep.rtt_col().data();
    rtts.reserve(sel.size());
    for (const auto i : sel)
      if (!std::isnan(rtt[i])) rtts.push_back(rtt[i]);
  }
  return ecdf_from(std::move(rtts), buckets);
}

// --- diff --------------------------------------------------------------------

namespace {

void count_appeared(epoch_diff& d) {
  d.appeared_by_class = {};
  for (const auto& r : d.appeared)
    ++d.appeared_by_class[static_cast<std::size_t>(r.cls)];
}

}  // namespace

epoch_diff diff_epochs(const catalog& cat, std::string_view from, std::string_view to) {
  const auto& a = cat.of(from);
  const auto& b = cat.of(to);

  epoch_diff d;
  d.from = a.label();
  d.to = b.label();

  // Sort-merge join per block pair over the (IP, canonical)-sorted
  // permutation indexes.  Refs are interned per world IXP id at the
  // catalog level, so matching blocks by ixp_ref IS matching by
  // (world IXP id); within an equal-IP run the first permuted entry is
  // the lowest canonical row, reproducing the ordered-map semantics of
  // the reference implementation for duplicate keys.
  constexpr auto k_nomatch = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> b_match(b.rows(), k_nomatch);
  std::vector<std::uint8_t> a_present(a.rows(), 0);
  const auto& pa = a.ip_perm();
  const auto& pb = b.ip_perm();
  for (const auto& bb : b.blocks()) {
    const auto* ab = a.block_of(bb.ixp);
    if (!ab) continue;
    std::size_t i = ab->begin, j = bb.begin;
    while (i < ab->end && j < bb.end) {
      const auto va = a.ip_col()[pa[i]];
      const auto vb = b.ip_col()[pb[j]];
      if (va < vb) {
        ++i;
      } else if (vb < va) {
        ++j;
      } else {
        const auto a_first = pa[i];
        for (; i < ab->end && a.ip_col()[pa[i]] == va; ++i) a_present[pa[i]] = 1;
        for (; j < bb.end && b.ip_col()[pb[j]] == va; ++j) b_match[pb[j]] = a_first;
      }
    }
  }

  // Canonical-order output passes (appeared / reclassified follow `to`,
  // disappeared follows `from` — identical to the reference).
  for (const auto& bb : b.blocks()) {
    for (std::size_t r = bb.begin; r < bb.end; ++r) {
      const auto m = b_match[r];
      if (m == k_nomatch) {
        d.appeared.push_back(b.row(r));
      } else if (a.cls_col()[m] != b.cls_col()[r]) {
        d.reclassified.push_back({a.row(m), b.row(r)});
      }
    }
  }
  for (const auto& aa : a.blocks())
    for (std::size_t r = aa.begin; r < aa.end; ++r)
      if (!a_present[r]) d.disappeared.push_back(a.row(r));

  count_appeared(d);
  return d;
}

epoch_diff diff_epochs_reference(const catalog& cat, std::string_view from,
                                 std::string_view to) {
  const auto& a = cat.of(from);
  const auto& b = cat.of(to);

  // (world ixp id, ip) -> canonical row index for `from` (the diff needs
  // the row to compare classes); a plain membership set suffices for `to`.
  std::map<infer::iface_key, std::size_t> ia;
  for (const auto& blk : a.blocks()) {
    const auto ixp = a.world_ixp(blk.ixp);
    for (std::size_t i = blk.begin; i < blk.end; ++i)
      ia.emplace(infer::iface_key{ixp, net::ipv4_addr{a.ip_col()[i]}}, i);
  }
  std::set<infer::iface_key> ib;
  for (const auto& blk : b.blocks()) {
    const auto ixp = b.world_ixp(blk.ixp);
    for (std::size_t i = blk.begin; i < blk.end; ++i)
      ib.emplace(ixp, net::ipv4_addr{b.ip_col()[i]});
  }

  epoch_diff d;
  d.from = a.label();
  d.to = b.label();
  for (const auto& blk : b.blocks()) {
    const auto ixp = b.world_ixp(blk.ixp);
    for (std::size_t i = blk.begin; i < blk.end; ++i) {
      const auto it = ia.find({ixp, net::ipv4_addr{b.ip_col()[i]}});
      if (it == ia.end()) {
        d.appeared.push_back(b.row(i));
      } else if (a.cls_col()[it->second] != b.cls_col()[i]) {
        d.reclassified.push_back({a.row(it->second), b.row(i)});
      }
    }
  }
  for (const auto& blk : a.blocks()) {
    const auto ixp = a.world_ixp(blk.ixp);
    for (std::size_t i = blk.begin; i < blk.end; ++i)
      if (!ib.contains({ixp, net::ipv4_addr{a.ip_col()[i]}}))
        d.disappeared.push_back(a.row(i));
  }
  count_appeared(d);
  return d;
}

}  // namespace opwat::serve
