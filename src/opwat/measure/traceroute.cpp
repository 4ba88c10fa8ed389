#include "opwat/measure/traceroute.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace opwat::measure {

traceroute_engine::traceroute_engine(const world::world& w, const latency_model& lat,
                                     traceroute_config cfg)
    : w_(w), lat_(lat), cfg_(cfg) {
  std::vector<std::vector<private_adj>> as_private(w.ases.size());
  std::vector<std::vector<membership_adj>> as_memberships(w.ases.size());
  std::vector<std::vector<world::as_id>> ixp_members(w.ixps.size());
  for (const auto& m : w.memberships) {
    as_memberships[m.member].push_back({m.ixp, m.id});
    ixp_members[m.ixp].push_back(m.member);
  }
  for (std::size_t i = 0; i < w.private_links.size(); ++i) {
    const auto& pl = w.private_links[i];
    const auto link = static_cast<std::uint32_t>(i);
    as_private[pl.a].push_back({pl.b, link});
    as_private[pl.b].push_back({pl.a, link});
  }
  as_private_.assign(as_private);
  as_memberships_.assign(as_memberships);
  ixp_members_.assign(ixp_members);

  fac_routers_.assign(w.facilities.size(), {world::k_invalid, world::k_invalid});
  for (const auto& rt : w.routers) {
    if (!rt.facility || rt.interfaces.empty()) continue;
    auto& slots = fac_routers_[*rt.facility];
    if (slots[0] == world::k_invalid)
      slots[0] = rt.id;
    else if (slots[1] == world::k_invalid)
      slots[1] = rt.id;
  }

  for (const auto& as : w.ases)
    if (!as_memberships[as.id].empty() || !as_private[as.id].empty())
      connected_.push_back(as.id);
  for (const auto& as : w.ases)
    for (const auto& p : as.routed_prefixes) routed_lookup_.insert(p, as.id);

  std::vector<std::uint32_t> point_id(w.facilities.size() + w.cities.size(),
                                     world::k_invalid);
  router_point_.reserve(w.routers.size());
  for (const auto& rt : w.routers) {
    auto& id = point_id.at(rt.facility ? *rt.facility : w.facilities.size() + rt.city);
    if (id == world::k_invalid) {
      id = static_cast<std::uint32_t>(points_.size());
      points_.push_back(latency_model::point_of_router(w, rt.id));
    }
    router_point_.push_back(id);
  }
  rtt_table_.assign(points_.size() * points_.size(),
                    std::numeric_limits<double>::quiet_NaN());

  bfs_.as_stamp.assign(w.ases.size(), 0);
  bfs_.ixp_stamp.assign(w.ixps.size(), 0);
  bfs_.parent_edge.resize(w.ases.size());
  bfs_.parent_as.resize(w.ases.size());
  bfs_.depth.resize(w.ases.size());
  bfs_.queue.reserve(w.ases.size());
}

net::ipv4_addr traceroute_engine::egress_iface(world::router_id rid,
                                               std::uint64_t tag) const {
  const auto& rt = w_.routers[rid];
  if (rt.interfaces.empty()) return net::ipv4_addr{0};
  const auto idx = util::hash_combine(rid, tag) % rt.interfaces.size();
  return rt.interfaces[idx];
}

double traceroute_engine::hop_rtt_ms(std::uint32_t a, std::uint32_t b) const {
  double& rtt = rtt_table_[std::size_t{a} * points_.size() + b];
  if (std::isnan(rtt)) rtt = lat_.base_rtt_ms(points_[a], points_[b], 1);
  return rtt;
}

void traceroute_engine::expand_next() const {
  // Private interconnects are explored first: networks prefer their
  // (cheaper, dedicated) private links over IXP fabric when both exist.
  auto& b = bfs_;
  const auto u = b.queue[b.head++];
  if (b.depth[u] >= cfg_.max_as_hops) return;

  const auto visit = [&](world::as_id v, const as_edge& e) {
    if (b.as_stamp[v] == b.gen) return;
    b.as_stamp[v] = b.gen;
    b.parent_edge[v] = e;
    b.parent_as[v] = u;
    b.depth[v] = b.depth[u] + 1;
    b.queue.push_back(v);
  };

  for (const auto& p : as_private_.row(u)) {
    as_edge e;
    e.to = p.peer;
    e.via_private = p.link;
    visit(p.peer, e);
  }
  for (const auto& m : as_memberships_.row(u)) {
    if (b.ixp_stamp[m.ixp] == b.gen) continue;
    b.ixp_stamp[m.ixp] = b.gen;
    for (const auto v : ixp_members_.row(m.ixp)) {
      if (v == u) continue;
      as_edge e;
      e.to = v;
      e.via_ixp = m.ixp;
      visit(v, e);
    }
  }
}

std::optional<std::span<const traceroute_engine::as_edge>> traceroute_engine::find_path(
    world::as_id src, world::as_id dst) const {
  auto& b = bfs_;
  b.path.clear();
  if (src == dst) return b.path;
  if (b.src != src) {
    if (++b.gen == 0) {  // stamps wrapped: forget every earlier search
      std::fill(b.as_stamp.begin(), b.as_stamp.end(), 0);
      std::fill(b.ixp_stamp.begin(), b.ixp_stamp.end(), 0);
      b.gen = 1;
    }
    b.src = src;
    b.as_stamp[src] = b.gen;
    b.depth[src] = 0;
    b.queue.assign(1, src);
    b.head = 0;
  }
  while (b.as_stamp[dst] != b.gen && b.head < b.queue.size()) expand_next();
  if (b.as_stamp[dst] != b.gen) return std::nullopt;
  for (world::as_id cur = dst; cur != src; cur = b.parent_as[cur])
    b.path.push_back(b.parent_edge[cur]);
  std::reverse(b.path.begin(), b.path.end());
  return b.path;
}

std::optional<trace> traceroute_engine::run(world::as_id src, net::ipv4_addr dst,
                                            util::rng& r) const {
  const auto dst_as = routed_lookup_.lookup(dst);
  if (!dst_as || src >= w_.ases.size()) return std::nullopt;
  const auto as_path = find_path(src, *dst_as);
  if (!as_path) return std::nullopt;

  trace t;
  t.src_as = src;
  t.dst = dst;
  t.hops.reserve(2 + 2 * as_path->size());

  // Membership of an AS at an IXP (first match).
  const auto membership_at = [&](world::as_id as, world::ixp_id x) -> const world::membership* {
    for (const auto& m : as_memberships_.row(as))
      if (m.ixp == x) return &w_.memberships[m.id];
    return nullptr;
  };

  // The router an AS uses to take edge e out of itself.
  const auto egress_router = [&](world::as_id as, const as_edge& e) -> world::router_id {
    if (e.via_ixp != world::k_invalid) {
      const auto* m = membership_at(as, e.via_ixp);
      return m ? m->router : world::k_invalid;
    }
    const auto& pl = w_.private_links[e.via_private];
    return pl.a == as ? pl.router_a : pl.router_b;
  };

  double cum_rtt = 0.3;  // departure through the source network
  std::optional<std::uint32_t> prev_point;

  // A hop answered by an interface of router `rid`.
  const auto emit = [&](net::ipv4_addr ip, world::router_id rid) {
    const auto at = router_point_[rid];
    if (prev_point) cum_rtt += hop_rtt_ms(*prev_point, at);
    prev_point = at;
    hop h;
    h.rtt_ms = cum_rtt + r.exponential(0.15);
    if (r.bernoulli(cfg_.star_rate)) {
      h.star = true;
    } else {
      h.ip = ip;
    }
    t.hops.push_back(h);
  };

  if (as_path->empty()) {
    // Intra-AS destination.
    const auto mems = as_memberships_.row(src);
    const auto privs = as_private_.row(src);
    if (mems.empty() && privs.empty()) return std::nullopt;
    const auto rid = !mems.empty() ? w_.memberships[mems.front().id].router
                                   : w_.private_links[privs.front().link].router_a;
    emit(egress_iface(rid, 0), rid);
    emit(dst, rid);
    t.reached = true;
    return t;
  }

  // Source hop: the egress interface of the router taking the first edge.
  {
    const auto rid = egress_router(src, as_path->front());
    if (rid == world::k_invalid) return std::nullopt;
    emit(egress_iface(rid, 0), rid);
  }

  for (std::size_t i = 0; i < as_path->size(); ++i) {
    const auto& e = (*as_path)[i];
    const auto v = e.to;
    world::router_id ingress_router = world::k_invalid;

    if (e.via_ixp != world::k_invalid) {
      const auto* m = membership_at(v, e.via_ixp);
      if (!m) return std::nullopt;
      ingress_router = m->router;
      emit(m->interface_ip, m->router);
    } else {
      const auto& pl = w_.private_links[e.via_private];
      const bool v_is_a = pl.a == v;
      ingress_router = v_is_a ? pl.router_a : pl.router_b;
      emit(v_is_a ? pl.ip_a : pl.ip_b, ingress_router);
    }

    const bool is_last = i + 1 == as_path->size();
    if (is_last) {
      // Destination address inside v.
      emit(t.dst, ingress_router);
      t.reached = true;
    } else {
      // Internal hop: the egress interface toward the next edge.  Emitted
      // even when ingress == egress router (routers answer with the
      // outgoing interface), which is what lets traIXroute see the triplet.
      const auto rid = egress_router(v, (*as_path)[i + 1]);
      if (rid == world::k_invalid) return std::nullopt;
      net::ipv4_addr ip = egress_iface(rid, i + 1);
      // Third-party artifact: a different router in the same facility
      // answers instead.
      if (r.bernoulli(cfg_.third_party_rate)) {
        const auto& fac = w_.routers[rid].facility;
        if (fac) {
          const auto& slots = fac_routers_[*fac];
          const auto other = slots[0] != rid ? slots[0] : slots[1];
          if (other != world::k_invalid) ip = w_.routers[other].interfaces.front();
        }
      }
      emit(ip, rid);
    }
  }
  return t;
}

std::vector<trace> traceroute_engine::campaign(std::span<const world::as_id> sources,
                                               std::size_t targets_per_src,
                                               util::rng& r) const {
  std::vector<trace> out;
  out.reserve(sources.size() * targets_per_src);
  for (const auto src : sources) {
    for (std::size_t k = 0; k < targets_per_src; ++k) {
      const auto dst_as = connected_[static_cast<std::size_t>(
          r.uniform_int(0, static_cast<std::int64_t>(connected_.size()) - 1))];
      const auto& prefixes = w_.ases[dst_as].routed_prefixes;
      if (prefixes.empty()) continue;
      const auto& p = prefixes[static_cast<std::size_t>(
          r.uniform_int(0, static_cast<std::int64_t>(prefixes.size()) - 1))];
      auto t = run(src, p.at(1), r);
      if (t) out.push_back(std::move(*t));
    }
  }
  return out;
}

trace traceroute_engine::run_from_vp(const net_point& vp_point,
                                     net::ipv4_addr member_iface, util::rng& r) const {
  trace t;
  t.dst = member_iface;
  const auto rid = w_.router_by_interface(member_iface);
  if (!rid) return t;
  const auto target = latency_model::point_of_router(w_, *rid);
  hop h;
  h.ip = member_iface;
  h.rtt_ms = lat_.sample_rtt_ms(vp_point, target, r);
  t.hops.push_back(h);
  t.reached = true;
  return t;
}

}  // namespace opwat::measure
