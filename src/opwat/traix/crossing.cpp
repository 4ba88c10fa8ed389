#include "opwat/traix/crossing.hpp"

#include <algorithm>
#include <optional>

namespace opwat::traix {

namespace {

/// What one hop's address resolves to, looked up once per hop.
struct hop_attr {
  std::optional<world::ixp_id> ixp;  // the peering LAN holding the address
  /// AS attribution: IXP interfaces resolve through the merged view's
  /// interface table, everything else through prefix2as.
  std::optional<net::asn> as;
  std::optional<net::asn> routed;  // prefix2as; looked up off peering LANs only
};

void attribute(std::span<const measure::hop> hops, const db::merged_view& view,
               const db::ip2as& prefix2as, std::vector<hop_attr>& out) {
  out.assign(hops.size(), hop_attr{});
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (hops[i].star) continue;
    auto& a = out[i];
    a.ixp = view.ixp_of_address(hops[i].ip);
    a.as = view.member_of_interface(hops[i].ip);
    if (a.ixp) continue;  // an unmapped LAN address has no AS
    a.routed = prefix2as.lookup(hops[i].ip);
    if (!a.as) a.as = a.routed;
  }
}

}  // namespace

extraction extract(std::span<const measure::trace> traces, const db::merged_view& view,
                   const db::ip2as& prefix2as, util::thread_pool* pool) {
  // Parallel path: contiguous chunks, extracted independently, then
  // concatenated in chunk order — identical bytes to the serial sweep.
  if (pool && pool->size() > 1 && traces.size() >= 2 * pool->size()) {
    // A few chunks per worker evens out corpora whose trace lengths vary.
    const std::size_t n_chunks =
        std::min(traces.size(), std::max<std::size_t>(1, pool->size() * 4));
    const std::size_t per = (traces.size() + n_chunks - 1) / n_chunks;
    std::vector<extraction> parts((traces.size() + per - 1) / per);
    pool->parallel_for(parts.size(), [&](std::size_t i) {
      const auto from = i * per;
      parts[i] = extract(traces.subspan(from, std::min(per, traces.size() - from)),
                         view, prefix2as, nullptr);
    });
    extraction out;
    std::size_t nc = 0, na = 0, np = 0;
    for (const auto& p : parts) {
      nc += p.crossings.size();
      na += p.adjacencies.size();
      np += p.private_links.size();
    }
    out.crossings.reserve(nc);
    out.adjacencies.reserve(na);
    out.private_links.reserve(np);
    for (auto& p : parts) {
      out.crossings.insert(out.crossings.end(), p.crossings.begin(), p.crossings.end());
      out.adjacencies.insert(out.adjacencies.end(), p.adjacencies.begin(),
                             p.adjacencies.end());
      out.private_links.insert(out.private_links.end(), p.private_links.begin(),
                               p.private_links.end());
    }
    return out;
  }

  extraction out;
  std::vector<hop_attr> attrs;
  for (const auto& t : traces) {
    const auto& hops = t.hops;
    attribute(hops, view, prefix2as, attrs);
    for (std::size_t i = 0; i < hops.size(); ++i) {
      if (hops[i].star) continue;
      const auto ixp = attrs[i].ixp;

      // --- Step-4 adjacency: previous hop owned by a member of this IXP.
      if (ixp && i >= 1 && !hops[i - 1].star && !attrs[i - 1].ixp) {
        const auto prev_as = attrs[i - 1].as;
        if (prev_as && view.is_member(*ixp, *prev_as))
          out.adjacencies.push_back({hops[i - 1].ip, *prev_as, *ixp});
      }

      // --- Full triplet rule.
      if (ixp && i >= 1 && i + 1 < hops.size() && !hops[i - 1].star && !hops[i + 1].star) {
        const auto as2 = attrs[i].as;
        const auto as1 = attrs[i - 1].as;
        const auto as3 = attrs[i + 1].as;
        if (as1 && as2 && as3 && *as2 == *as3 && *as1 != *as2 &&
            view.is_member(*ixp, *as1) && view.is_member(*ixp, *as2)) {
          ixp_crossing c;
          c.ixp = *ixp;
          c.near_as = *as1;
          c.far_as = *as2;
          c.near_ip = hops[i - 1].ip;
          c.ixp_ip = hops[i].ip;
          c.rtt_to_ixp_ip_ms = hops[i].rtt_ms;
          c.rtt_to_near_ip_ms = hops[i - 1].rtt_ms;
          out.crossings.push_back(c);
        }
      }

      // --- Step-5 private adjacency: consecutive non-IXP hops in
      // different ASes.
      if (i >= 1 && !hops[i - 1].star && !ixp && !attrs[i - 1].ixp) {
        const auto as_a = attrs[i - 1].routed;
        const auto as_b = attrs[i].routed;
        if (as_a && as_b && *as_a != *as_b)
          out.private_links.push_back({hops[i - 1].ip, hops[i].ip, *as_a, *as_b});
      }
    }
  }
  return out;
}

}  // namespace opwat::traix
