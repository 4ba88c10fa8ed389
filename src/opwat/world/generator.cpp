#include "opwat/world/generator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "opwat/geo/metro.hpp"
#include "opwat/net/ip_alloc.hpp"
#include "opwat/util/rng.hpp"
#include "opwat/world/cities.hpp"
#include "opwat/world/evolution.hpp"

namespace opwat::world {

namespace {

using util::rng;

/// An IXP's members outgrew the peering LAN sized for its member target.
struct lan_exhausted : std::runtime_error {
  lan_exhausted(ixp_id id, const std::string& name)
      : std::runtime_error{"generator: peering LAN exhausted for " + name}, ixp(id) {}
  ixp_id ixp;
};

struct gen_state {
  const gen_config& cfg;
  // Extra prefix bits per IXP LAN, beyond the size its member target asks.
  const std::vector<int>& lan_extra_bits;
  world w;
  rng root;
  net::address_plan plan;

  std::vector<std::vector<facility_id>> city_facilities;  // per city
  std::vector<std::vector<as_id>> city_ases;              // hq index
  std::vector<std::vector<double>> city_dist;             // pairwise km
  // Facilities an AS must never acquire (footprints of IXPs where the AS
  // peers over a long cable or a federation; acquiring one would flip the
  // ground-truth label).
  std::vector<std::set<facility_id>> as_forbidden_facs;
  // Backbone interface allocation cursor per AS.
  std::vector<std::uint64_t> as_iface_cursor;
  // Members already attached per IXP (to avoid duplicates).
  std::vector<std::unordered_set<as_id>> ixp_members;
  // Resellers serving each IXP.
  std::vector<std::vector<reseller_id>> ixp_resellers;
  // Per-IXP next free LAN host index.
  std::vector<std::uint64_t> lan_cursor;

  gen_state(const gen_config& c, const std::vector<int>& extra_bits)
      : cfg(c), lan_extra_bits(extra_bits), root(c.seed) {}
};

double geodesic_between_cities(const gen_state& st, city_id a, city_id b) {
  return st.city_dist[a][b];
}

net::ipv4_addr next_backbone_iface(gen_state& st, as_id as) {
  auto& cur = st.as_iface_cursor[as];
  const auto& bb = st.w.ases[as].backbone;
  if (cur >= bb.size()) throw std::runtime_error{"generator: AS backbone exhausted"};
  return bb.at(cur++);
}

void make_cities(gen_state& st) {
  const auto table = city_table();
  const std::size_t n = std::min(st.cfg.n_cities, table.size());
  if (n == 0) throw std::runtime_error{"generator: need at least one city"};
  st.w.cities.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    city c;
    c.id = static_cast<city_id>(i);
    c.name = std::string{table[i].name};
    c.country = std::string{table[i].country};
    c.location = table[i].location;
    c.hub_weight = table[i].hub_weight;
    st.w.cities.push_back(std::move(c));
  }
  st.city_dist.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = geo::geodesic_km(st.w.cities[i].location, st.w.cities[j].location);
      st.city_dist[i][j] = st.city_dist[j][i] = d;
    }
}

void make_facilities(gen_state& st) {
  auto r = st.root.fork("facilities");
  st.city_facilities.assign(st.w.cities.size(), {});
  for (const auto& c : st.w.cities) {
    const double expected = std::max(1.0, c.hub_weight * st.cfg.facilities_per_hub_weight);
    const auto count = static_cast<std::size_t>(
        std::max<std::int64_t>(1, r.uniform_int(static_cast<std::int64_t>(expected * 0.6),
                                                static_cast<std::int64_t>(expected * 1.4) + 1)));
    for (std::size_t k = 0; k < count; ++k) {
      facility f;
      f.id = static_cast<facility_id>(st.w.facilities.size());
      f.name = c.name + " DC" + std::to_string(k + 1);
      f.city = c.id;
      f.location = geo::offset_km(c.location, r.uniform(0.0, 360.0), r.uniform(1.0, 22.0));
      st.city_facilities[c.id].push_back(f.id);
      st.w.facilities.push_back(std::move(f));
    }
  }
}

city_id pick_city_weighted(gen_state& st, rng& r) {
  std::vector<double> w(st.w.cities.size());
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = st.w.cities[i].hub_weight;
  return static_cast<city_id>(r.weighted_index(w));
}

std::vector<std::size_t> ixp_member_targets(const gen_state& st, rng& r) {
  std::vector<std::size_t> targets(st.cfg.n_ixps);
  for (std::size_t rank = 0; rank < st.cfg.n_ixps; ++rank) {
    const double base = static_cast<double>(st.cfg.largest_ixp_members) *
                        std::pow(static_cast<double>(rank + 1), -st.cfg.zipf_exponent);
    const double noisy = base * r.uniform(0.85, 1.15);
    targets[rank] = std::max<std::size_t>(st.cfg.smallest_ixp_members,
                                          static_cast<std::size_t>(noisy));
  }
  return targets;
}

void make_ixps(gen_state& st, const std::vector<std::size_t>& member_targets) {
  auto r = st.root.fork("ixps");
  st.lan_cursor.assign(st.cfg.n_ixps, 10);  // .1 reserved for the route server
  std::map<std::string, int> per_city_count;

  for (std::size_t rank = 0; rank < st.cfg.n_ixps; ++rank) {
    ixp x;
    x.id = static_cast<ixp_id>(rank);
    x.home_city = pick_city_weighted(st, r);
    const auto& hc = st.w.cities[x.home_city];
    const int nth = ++per_city_count[hc.name];
    x.name = "IX-" + hc.name + (nth > 1 ? "-" + std::to_string(nth) : "");

    // Home-city facilities: more for bigger IXPs.
    const auto& home_facs = st.city_facilities[x.home_city];
    const std::size_t n_home = std::min<std::size_t>(
        home_facs.size(),
        1 + static_cast<std::size_t>(r.uniform_int(0, rank < 10 ? 3 : 1)));
    for (const auto idx : r.sample_indices(home_facs.size(), n_home))
      x.facilities.push_back(home_facs[idx]);

    // Wide-area IXPs extend to facilities in other cities.
    if (r.bernoulli(st.cfg.wide_area_fraction)) {
      std::vector<city_id> reachable;
      for (const auto& c : st.w.cities)
        if (c.id != x.home_city &&
            geodesic_between_cities(st, x.home_city, c.id) < st.cfg.wide_area_reach_km)
          reachable.push_back(c.id);
      r.shuffle(reachable);
      const std::size_t extra = std::min<std::size_t>(
          reachable.size(),
          2 + static_cast<std::size_t>(
                  r.uniform_int(0, static_cast<std::int64_t>(st.cfg.wide_area_extra_cities_max) - 2)));
      for (std::size_t i = 0; i < extra; ++i) {
        const auto& cf = st.city_facilities[reachable[i]];
        x.facilities.push_back(cf[static_cast<std::size_t>(
            r.uniform_int(0, static_cast<std::int64_t>(cf.size()) - 1))]);
      }
    }

    // Peering LAN sized to the expected member count.
    const std::size_t target = member_targets[rank];
    const int lan_len =
        (target <= 220 ? 24 : (target <= 480 ? 23 : 22)) - st.lan_extra_bits[rank];
    x.peering_lan = st.plan.ixp_lans.allocate(lan_len);
    x.route_server_ip = x.peering_lan.at(1);

    x.min_physical_capacity_gbps = r.bernoulli(st.cfg.ten_gig_min_capacity_fraction) ? 10.0 : 1.0;
    if (x.min_physical_capacity_gbps >= 10.0)
      x.port_options_gbps = {10.0, 40.0, 100.0};
    else
      x.port_options_gbps = {1.0, 10.0, 40.0, 100.0};

    x.supports_resellers = r.bernoulli(st.cfg.reseller_support_fraction);
    x.has_looking_glass = r.bernoulli(st.cfg.looking_glass_fraction);
    x.publishes_member_list = r.bernoulli(st.cfg.publishes_member_list_fraction);
    x.publishes_port_types = r.bernoulli(st.cfg.publishes_port_types_fraction);
    st.w.ixps.push_back(std::move(x));
  }

  // Federations: pair distinct IXPs in different metro areas ("DE-CIX
  // Frankfurt / DE-CIX New York" style).  Each pair shares a federation id.
  federation_id next_fed = 0;
  const auto n_pairs = static_cast<std::size_t>(
      st.cfg.federation_pair_fraction * static_cast<double>(st.cfg.n_ixps) / 2.0);
  for (std::size_t p = 0; p < n_pairs; ++p) {
    const auto a = static_cast<std::size_t>(r.uniform_int(0, static_cast<std::int64_t>(st.cfg.n_ixps) - 1));
    const auto b = static_cast<std::size_t>(r.uniform_int(0, static_cast<std::int64_t>(st.cfg.n_ixps) - 1));
    if (a == b) continue;
    auto& xa = st.w.ixps[a];
    auto& xb = st.w.ixps[b];
    if (xa.federation || xb.federation) continue;
    if (geodesic_between_cities(st, xa.home_city, xb.home_city) < 200.0) continue;
    xa.federation = next_fed;
    xb.federation = next_fed;
    ++next_fed;
  }
}

void make_resellers(gen_state& st) {
  auto r = st.root.fork("resellers");
  st.ixp_resellers.assign(st.w.ixps.size(), {});
  for (std::size_t k = 0; k < st.cfg.n_resellers; ++k) {
    reseller rs;
    rs.id = static_cast<reseller_id>(k);
    rs.name = "Reseller-" + std::to_string(k + 1);
    rs.asn = net::asn{static_cast<std::uint32_t>(900000 + k)};
    // Serve 2..6 IXPs, weighted toward the big (low-rank) ones that allow
    // reselling.
    std::vector<double> weights(st.w.ixps.size(), 0.0);
    for (const auto& x : st.w.ixps)
      if (x.supports_resellers)
        weights[x.id] = 1.0 / std::sqrt(static_cast<double>(x.id) + 1.0);
    const auto n_served = static_cast<std::size_t>(r.uniform_int(2, 6));
    for (std::size_t i = 0; i < n_served; ++i) {
      const auto pick = static_cast<ixp_id>(r.weighted_index(weights));
      // opwat-lint: allow(float-compare): exact sentinel check — the only
      // zero weights are the 0.0 literals assigned right below
      if (weights[pick] == 0.0) continue;
      weights[pick] = 0.0;  // no duplicates
      const auto& facs = st.w.ixps[pick].facilities;
      rs.ixps.push_back(pick);
      rs.handoff_facs.push_back(
          facs[static_cast<std::size_t>(r.uniform_int(0, static_cast<std::int64_t>(facs.size()) - 1))]);
      st.ixp_resellers[pick].push_back(rs.id);
    }
    st.w.resellers.push_back(std::move(rs));
  }
}

void make_ases(gen_state& st) {
  auto r = st.root.fork("ases");
  st.city_ases.assign(st.w.cities.size(), {});
  st.as_forbidden_facs.assign(st.cfg.n_ases, {});
  st.as_iface_cursor.assign(st.cfg.n_ases, 0);
  st.w.ases.reserve(st.cfg.n_ases);
  for (std::size_t i = 0; i < st.cfg.n_ases; ++i) {
    autonomous_system as;
    as.id = static_cast<as_id>(i);
    as.asn = net::asn{static_cast<std::uint32_t>(1000 + i)};
    as.name = "AS-" + std::to_string(as.asn.value);
    as.hq_city = pick_city_weighted(st, r);
    as.country = st.w.cities[as.hq_city].country;
    as.customer_cone = static_cast<int>(std::min(50000.0, r.pareto(1.0, 1.05)));
    as.traffic_gbps = std::min(50000.0, std::exp(r.normal(0.0, 2.2)));
    as.user_population =
        static_cast<std::int64_t>(std::min(3.0e8, as.customer_cone * std::exp(r.normal(9.0, 1.5))));
    as.backbone = st.plan.backbone.allocate(20);
    const auto n_routed = static_cast<std::size_t>(r.uniform_int(1, 5));
    for (std::size_t p = 0; p < n_routed; ++p)
      as.routed_prefixes.push_back(st.plan.routed.allocate(23));
    // Colocation presence: ~60% single facility (their home market).
    const auto& home_facs = st.city_facilities[as.hq_city];
    const auto home_fac =
        home_facs[static_cast<std::size_t>(r.uniform_int(0, static_cast<std::int64_t>(home_facs.size()) - 1))];
    as.facilities.push_back(home_fac);
    if (!r.bernoulli(st.cfg.single_facility_as_fraction)) {
      const auto extra =
          static_cast<std::size_t>(std::min(29.0, r.pareto(1.0, 1.2)));
      for (std::size_t e = 0; e < extra; ++e) {
        const auto cid = pick_city_weighted(st, r);
        const auto& cf = st.city_facilities[cid];
        const auto fac =
            cf[static_cast<std::size_t>(r.uniform_int(0, static_cast<std::int64_t>(cf.size()) - 1))];
        if (std::find(as.facilities.begin(), as.facilities.end(), fac) == as.facilities.end())
          as.facilities.push_back(fac);
      }
    }
    st.city_ases[as.hq_city].push_back(as.id);
    st.w.ases.push_back(std::move(as));
  }
}

bool as_colocated_with_ixp(const gen_state& st, as_id as, const ixp& x) {
  const auto& facs = st.w.ases[as].facilities;
  for (const auto f : x.facilities)
    if (std::find(facs.begin(), facs.end(), f) != facs.end()) return true;
  return false;
}

/// Samples a local port capacity from the IXP's physical menu.
double local_port_capacity(const gen_state& st, const ixp& x, as_id as, rng& r) {
  const double traffic = st.w.ases[as].traffic_gbps;
  std::vector<double> weights;
  for (const double c : x.port_options_gbps) {
    double wgt = c <= x.min_physical_capacity_gbps ? 0.50 : (c <= 10.0 ? 0.33 : (c <= 40.0 ? 0.10 : 0.07));
    if (c >= 100.0 && traffic < 50.0) wgt *= 0.05;  // 100GE only for heavy hitters
    weights.push_back(wgt);
  }
  return x.port_options_gbps[r.weighted_index(weights)];
}

membership_id add_membership(gen_state& st, ixp_id ixp, as_id as, attachment how,
                             std::optional<reseller_id> via, double capacity,
                             port_kind port, facility_id attach_fac) {
  auto& x = st.w.ixps[ixp];
  membership m;
  m.id = static_cast<membership_id>(st.w.memberships.size());
  m.member = as;
  m.ixp = ixp;
  m.how = how;
  m.via = via;
  m.port_capacity_gbps = capacity;
  m.port = port;
  m.attach_facility = attach_fac;
  auto& cursor = st.lan_cursor[ixp];
  if (cursor >= x.peering_lan.size() - 1) throw lan_exhausted{ixp, x.name};
  m.interface_ip = x.peering_lan.at(cursor++);
  st.ixp_members[ixp].insert(as);
  st.w.memberships.push_back(m);
  return m.id;
}

/// Picks an AS headquartered roughly `lo..hi` km from the IXP's home city.
/// Cities inside the band are weighted toward the near edge (peering
/// catchments thin out with distance) and weighted by their AS supply.
/// When the band's pool is exhausted it widens outward, so big IXPs can
/// always fill their member targets.
std::optional<as_id> pick_as_in_band(gen_state& st, rng& r, const ixp& x, double lo,
                                     double hi, int max_tries = 24) {
  for (int widen = 0; widen < 4; ++widen) {
    std::vector<city_id> band;
    std::vector<double> weights;
    for (const auto& c : st.w.cities) {
      const double d =
          c.id == x.home_city ? 0.0 : geodesic_between_cities(st, x.home_city, c.id);
      if (d < lo || d > hi || st.city_ases[c.id].empty()) continue;
      band.push_back(c.id);
      const double span = std::max(1.0, hi - lo);
      const double near_edge = 1.0 / (1.0 + 3.0 * (d - lo) / span);
      weights.push_back(near_edge * static_cast<double>(st.city_ases[c.id].size()));
    }
    for (int t = 0; !band.empty() && t < max_tries; ++t) {
      const auto cid = band[r.weighted_index(weights)];
      const auto& pool = st.city_ases[cid];
      const auto as = pool[static_cast<std::size_t>(
          r.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      if (!st.ixp_members[x.id].contains(as)) return as;
    }
    hi = hi * 2.5 + 150.0;  // widen the catchment and retry
  }
  return std::nullopt;
}

void make_local_membership(gen_state& st, rng& r, const ixp& x, as_id as) {
  // Choose (or create) the member's presence at one of the IXP's sites,
  // honouring the long-cable consistency constraint.
  std::vector<facility_id> candidates;
  for (const auto f : x.facilities)
    if (!st.as_forbidden_facs[as].contains(f)) candidates.push_back(f);
  if (candidates.empty()) return;  // cannot be made local consistently
  // Prefer a facility the AS already occupies.
  facility_id chosen = k_invalid;
  for (const auto f : candidates)
    if (std::find(st.w.ases[as].facilities.begin(), st.w.ases[as].facilities.end(), f) !=
        st.w.ases[as].facilities.end()) {
      chosen = f;
      break;
    }
  if (chosen == k_invalid) {
    // Members concentrate at the IXP's main (home-city) sites; satellite
    // sites of wide-area IXPs host a minority.
    std::vector<double> weights;
    for (const auto f : candidates)
      weights.push_back(st.w.facilities[f].city == x.home_city ? 6.0 : 1.0);
    chosen = candidates[r.weighted_index(weights)];
  }
  auto& as_facs = st.w.ases[as].facilities;
  if (std::find(as_facs.begin(), as_facs.end(), chosen) == as_facs.end())
    as_facs.push_back(chosen);
  add_membership(st, x.id, as, attachment::colocated, std::nullopt,
                 local_port_capacity(st, x, as, r), port_kind::physical, chosen);
}

void make_remote_membership(gen_state& st, rng& r, const ixp& x, as_id as) {
  // Attachment type mix.
  const bool reseller_possible = x.supports_resellers && !st.ixp_resellers[x.id].empty();
  const bool federation_possible = x.federation.has_value();
  double p_res = reseller_possible ? st.cfg.reseller_share_among_remote : 0.0;
  double p_cable = st.cfg.long_cable_share_among_remote;
  double p_fed = federation_possible
                     ? 1.0 - st.cfg.reseller_share_among_remote - st.cfg.long_cable_share_among_remote
                     : 0.0;
  if (p_res + p_cable + p_fed <= 0.0) p_cable = 1.0;
  const double roll = r.uniform01() * (p_res + p_cable + p_fed);

  if (roll < p_res) {
    // Reseller customer: virtual port at the reseller's handoff facility.
    const auto& pool = st.ixp_resellers[x.id];
    const auto rs_id = pool[static_cast<std::size_t>(
        r.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const auto& rs = st.w.resellers[rs_id];
    facility_id handoff = k_invalid;
    for (std::size_t i = 0; i < rs.ixps.size(); ++i)
      if (rs.ixps[i] == x.id) handoff = rs.handoff_facs[i];
    double cap;
    if (r.bernoulli(st.cfg.fractional_port_share)) {
      static constexpr double kFractions[] = {0.1, 0.2, 0.5};
      cap = x.min_physical_capacity_gbps *
            kFractions[static_cast<std::size_t>(r.uniform_int(0, 2))];
    } else {
      cap = r.bernoulli(0.8) ? x.min_physical_capacity_gbps : 10.0;
    }
    const auto mid = add_membership(st, x.id, as, attachment::reseller, rs_id, cap,
                                    port_kind::virtual_reseller, handoff);
    // Fig. 5 artifact: a few reseller customers are colocated with the IXP
    // anyway (they buy virtual ports for the discount).
    if (r.bernoulli(st.cfg.colocated_reseller_fraction)) {
      auto& as_facs = st.w.ases[as].facilities;
      const auto f = x.facilities[static_cast<std::size_t>(
          r.uniform_int(0, static_cast<std::int64_t>(x.facilities.size()) - 1))];
      if (!st.as_forbidden_facs[as].contains(f) &&
          std::find(as_facs.begin(), as_facs.end(), f) == as_facs.end())
        as_facs.push_back(f);
    }
    (void)mid;
  } else if (roll < p_res + p_cable) {
    // Long cable: physical port, but the AS keeps no presence at the IXP.
    if (as_colocated_with_ixp(st, as, x)) return;  // would flip the label
    for (const auto f : x.facilities) st.as_forbidden_facs[as].insert(f);
    const double cap = r.bernoulli(0.7) ? x.min_physical_capacity_gbps : 10.0;
    const auto f = x.facilities[static_cast<std::size_t>(
        r.uniform_int(0, static_cast<std::int64_t>(x.facilities.size()) - 1))];
    add_membership(st, x.id, as, attachment::long_cable, std::nullopt, cap,
                   port_kind::physical, f);
  } else {
    // Federation: reached over the sister IXP's fabric.
    if (as_colocated_with_ixp(st, as, x)) return;
    for (const auto f : x.facilities) st.as_forbidden_facs[as].insert(f);
    const double cap = x.min_physical_capacity_gbps;
    const auto f = x.facilities[static_cast<std::size_t>(
        r.uniform_int(0, static_cast<std::int64_t>(x.facilities.size()) - 1))];
    add_membership(st, x.id, as, attachment::federation, std::nullopt, cap,
                   port_kind::physical, f);
  }
}

void make_memberships(gen_state& st, const std::vector<std::size_t>& member_targets) {
  auto r = st.root.fork("memberships");
  st.ixp_members.assign(st.w.ixps.size(), {});

  for (const auto& x : st.w.ixps) {
    const std::size_t target = member_targets[x.id];
    // Remote share rises with IXP size (rank 0 = largest).
    const double t = st.cfg.n_ixps > 1
                         ? static_cast<double>(x.id) / static_cast<double>(st.cfg.n_ixps - 1)
                         : 0.0;
    const double remote_share =
        st.cfg.remote_share_largest + (st.cfg.remote_share_smallest - st.cfg.remote_share_largest) * t;
    const auto n_remote = static_cast<std::size_t>(remote_share * static_cast<double>(target));
    const std::size_t n_local = target - n_remote;

    // Remote members are picked FIRST so that the same-metro remote class
    // (the paper's <1 ms remotes, Fig. 1b) can still find headquarters in
    // the IXP's home city before local members drain the pool.
    for (std::size_t i = 0; i < n_remote; ++i) {
      const double roll = r.uniform01();
      double lo = 0, hi = 90;  // same metro / next city (the <1 ms class)
      if (roll > st.cfg.remote_same_metro_fraction) {
        lo = 100;
        hi = 1300;
      }
      if (roll > st.cfg.remote_same_metro_fraction + st.cfg.remote_regional_fraction) {
        lo = 1300;
        hi = 9000;
      }
      // Remote peers are, with few exceptions, networks NOT housed in any
      // of the IXP's facilities (Fig. 5: 95% share no facility).  Retry
      // the pick when it lands on a colocated AS; the rare colocated
      // reseller customers are injected separately below.
      std::optional<as_id> as;
      for (int attempt = 0; attempt < 6; ++attempt) {
        as = pick_as_in_band(st, r, x, lo, hi);
        if (!as || !as_colocated_with_ixp(st, *as, x)) break;
        as.reset();
      }
      if (!as) continue;
      make_remote_membership(st, r, x, *as);
    }
    for (std::size_t i = 0; i < n_local; ++i) {
      // Locals: mostly regional, with some global players at big IXPs.
      const double roll = r.uniform01();
      double lo = 0, hi = 60;  // same metro
      if (roll > 0.55) {
        lo = 60;
        hi = 1500;
      }
      if (roll > 0.85) {
        lo = 1500;
        hi = 20000;
      }
      const auto as = pick_as_in_band(st, r, x, lo, hi);
      if (!as) continue;
      make_local_membership(st, r, x, *as);
    }
  }
}

void make_remote_collectors(gen_state& st) {
  auto r = st.root.fork("collectors");
  if (st.cfg.remote_collector_count == 0) return;
  // IXPs that can actually be reached through a reseller.
  std::vector<ixp_id> sellable;
  for (const auto& x : st.w.ixps)
    if (x.supports_resellers && !st.ixp_resellers[x.id].empty())
      sellable.push_back(x.id);
  if (sellable.empty()) return;

  for (std::size_t k = 0; k < st.cfg.remote_collector_count; ++k) {
    const auto as = static_cast<as_id>(
        r.uniform_int(0, static_cast<std::int64_t>(st.w.ases.size()) - 1));
    // Cap against the pool so collectors never blanket every sellable IXP
    // (which would flatten the size-dependent remote share in small worlds).
    const auto target = std::min<std::size_t>(
        static_cast<std::size_t>(
            r.uniform_int(static_cast<std::int64_t>(st.cfg.collector_min_ixps),
                          static_cast<std::int64_t>(st.cfg.collector_max_ixps))),
        std::max<std::size_t>(st.cfg.collector_min_ixps, sellable.size() / 2));
    // Collectors chase the big member bases: weight toward low-rank
    // (large) IXPs like reseller programs do, so small IXPs keep their
    // size-dependent remote share.
    std::vector<ixp_id> order;
    {
      auto pool = sellable;
      std::vector<double> weights;
      for (const auto xid : pool)
        weights.push_back(1.0 / (1.0 + static_cast<double>(xid)));
      while (!pool.empty()) {
        const auto idx = r.weighted_index(weights);
        order.push_back(pool[idx]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
        weights.erase(weights.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    }
    std::size_t joined = 0;
    for (const auto xid : order) {
      if (joined >= target) break;
      const auto& x = st.w.ixps[xid];
      if (st.ixp_members[xid].contains(as)) continue;
      if (as_colocated_with_ixp(st, as, x)) continue;
      const auto& pool = st.ixp_resellers[xid];
      const auto rs_id = pool[static_cast<std::size_t>(
          r.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      const auto& rs = st.w.resellers[rs_id];
      facility_id handoff = k_invalid;
      for (std::size_t i = 0; i < rs.ixps.size(); ++i)
        if (rs.ixps[i] == xid) handoff = rs.handoff_facs[i];
      // Collectors buy whatever tier is cheap at each IXP: often but not
      // always fractional.
      double cap = x.min_physical_capacity_gbps;
      if (r.bernoulli(0.6)) {
        static constexpr double kFractions[] = {0.1, 0.2, 0.5};
        cap *= kFractions[static_cast<std::size_t>(r.uniform_int(0, 2))];
      }
      add_membership(st, xid, as, attachment::reseller, rs_id, cap,
                     port_kind::virtual_reseller, handoff);
      ++joined;
    }
  }
}

void make_routers(gen_state& st) {
  auto r = st.root.fork("routers");
  // Group membership ids per AS.
  std::vector<std::vector<membership_id>> per_as(st.w.ases.size());
  for (const auto& m : st.w.memberships) per_as[m.member].push_back(m.id);

  for (const auto& as : st.w.ases) {
    const auto& mm = per_as[as.id];
    if (mm.empty()) continue;
    auto ar = r.fork(as.id);

    // Local memberships (and colocated reseller customers) get routers in
    // the facility where the AS is present.
    std::map<facility_id, router_id> fac_router;
    std::vector<membership_id> remote_pending;

    const auto router_at_facility = [&](facility_id f) -> router_id {
      const auto it = fac_router.find(f);
      if (it != fac_router.end()) return it->second;
      router rt;
      rt.id = static_cast<router_id>(st.w.routers.size());
      rt.owner = as.id;
      rt.facility = f;
      rt.city = st.w.facilities[f].city;
      rt.interfaces.push_back(next_backbone_iface(st, as.id));
      rt.interfaces.push_back(next_backbone_iface(st, as.id));
      st.w.routers.push_back(rt);
      fac_router[f] = rt.id;
      return rt.id;
    };

    for (const auto mid : mm) {
      auto& m = st.w.memberships[mid];
      if (m.how == attachment::colocated) {
        m.router = router_at_facility(m.attach_facility);
      } else if (m.how == attachment::reseller) {
        // Colocated reseller customers place their router at the shared
        // facility; the rest connect from their premises.
        facility_id shared = k_invalid;
        for (const auto f : st.w.ixps[m.ixp].facilities)
          if (std::find(as.facilities.begin(), as.facilities.end(), f) != as.facilities.end()) {
            shared = f;
            break;
          }
        if (shared != k_invalid)
          m.router = router_at_facility(shared);
        else
          remote_pending.push_back(mid);
      } else {
        remote_pending.push_back(mid);
      }
    }

    if (!remote_pending.empty()) {
      // Hybrid multi-IXP router (Fig. 3c): remote memberships ride on an
      // existing local router when allowed.
      router_id hybrid = k_invalid;
      if (!fac_router.empty() && ar.bernoulli(st.cfg.hybrid_router_prob))
        hybrid = fac_router.begin()->second;

      router_id shared_hq = k_invalid;
      const bool consolidate = ar.bernoulli(st.cfg.multi_ixp_same_router_prob);

      for (const auto mid : remote_pending) {
        auto& m = st.w.memberships[mid];
        if (hybrid != k_invalid) {
          const auto hf = st.w.routers[hybrid].facility;
          const auto& xf = st.w.ixps[m.ixp].facilities;
          const bool conflict =
              hf && std::find(xf.begin(), xf.end(), *hf) != xf.end() &&
              m.how != attachment::reseller;
          if (!conflict) {
            m.router = hybrid;
            continue;
          }
        }
        if (consolidate) {
          if (shared_hq == k_invalid) {
            router rt;
            rt.id = static_cast<router_id>(st.w.routers.size());
            rt.owner = as.id;
            rt.city = as.hq_city;
            rt.interfaces.push_back(next_backbone_iface(st, as.id));
            rt.interfaces.push_back(next_backbone_iface(st, as.id));
            st.w.routers.push_back(rt);
            shared_hq = rt.id;
          }
          m.router = shared_hq;
        } else {
          router rt;
          rt.id = static_cast<router_id>(st.w.routers.size());
          rt.owner = as.id;
          rt.city = as.hq_city;
          rt.interfaces.push_back(next_backbone_iface(st, as.id));
          rt.interfaces.push_back(next_backbone_iface(st, as.id));
          st.w.routers.push_back(rt);
          m.router = rt.id;
        }
      }
    }
  }
}

void make_private_links(gen_state& st) {
  auto r = st.root.fork("private-links");
  // Routers per facility.
  std::unordered_map<facility_id, std::vector<router_id>> per_fac;
  for (const auto& rt : st.w.routers)
    if (rt.facility) per_fac[*rt.facility].push_back(rt.id);

  // Deterministic facility order.
  std::vector<facility_id> facs;
  facs.reserve(per_fac.size());
  // opwat-lint: allow(unordered-iter): keys are sorted immediately below,
  // so the visit order never reaches the generated world
  for (const auto& [f, _] : per_fac) facs.push_back(f);
  std::sort(facs.begin(), facs.end());

  for (const auto f : facs) {
    const auto& routers_here = per_fac[f];
    const std::size_t k = routers_here.size();
    if (k < 2) continue;
    const std::size_t all_pairs = k * (k - 1) / 2;
    const auto expected = static_cast<std::size_t>(
        st.cfg.private_link_prob * static_cast<double>(all_pairs));
    const std::size_t n_links =
        std::min(st.cfg.max_private_links_per_facility, std::max<std::size_t>(expected, k >= 4 ? 2 : 0));
    std::set<std::pair<router_id, router_id>> made;
    for (std::size_t t = 0; t < n_links * 3 && made.size() < n_links; ++t) {
      auto i = static_cast<std::size_t>(r.uniform_int(0, static_cast<std::int64_t>(k) - 1));
      auto j = static_cast<std::size_t>(r.uniform_int(0, static_cast<std::int64_t>(k) - 1));
      if (i == j) continue;
      auto ra = routers_here[std::min(i, j)];
      auto rb = routers_here[std::max(i, j)];
      const auto as_a = st.w.routers[ra].owner;
      const auto as_b = st.w.routers[rb].owner;
      if (as_a == as_b) continue;
      if (!made.insert({ra, rb}).second) continue;
      private_link pl;
      pl.a = as_a;
      pl.b = as_b;
      pl.router_a = ra;
      pl.router_b = rb;
      pl.fac = f;
      pl.ip_a = next_backbone_iface(st, as_a);
      pl.ip_b = next_backbone_iface(st, as_b);
      pl.tethered = r.bernoulli(st.cfg.tethered_private_fraction);
      st.w.routers[ra].interfaces.push_back(pl.ip_a);
      st.w.routers[rb].interfaces.push_back(pl.ip_b);
      st.w.private_links.push_back(pl);
    }
  }
}

world generate_once(const gen_config& cfg, const std::vector<int>& lan_extra_bits) {
  gen_state st{cfg, lan_extra_bits};
  make_cities(st);
  make_facilities(st);
  auto sizes_rng = st.root.fork("sizes");
  const auto targets = ixp_member_targets(st, sizes_rng);
  make_ixps(st, targets);
  make_resellers(st);
  make_ases(st);
  make_memberships(st, targets);
  make_remote_collectors(st);
  make_routers(st);
  make_private_links(st);
  if (cfg.months > 0) {
    auto er = st.root.fork("evolution");
    assign_membership_history(st.w, cfg, er);
  }
  st.w.finalize();
  return std::move(st.w);
}

}  // namespace

world generate(const gen_config& cfg) {
  if (cfg.n_ixps == 0 || cfg.n_ases == 0)
    throw std::runtime_error{"generator: need at least one IXP and one AS"};
  // The members placed at an IXP can outgrow the LAN sized for its member
  // target.  Such a world is generated again from the same seed with that
  // LAN doubled: no random draw depends on a LAN's size, so only LAN
  // addresses differ, and a world that fits is generated exactly once.
  std::vector<int> lan_extra_bits(cfg.n_ixps, 0);
  for (;;) {
    try {
      return generate_once(cfg, lan_extra_bits);
    } catch (const lan_exhausted& e) {
      ++lan_extra_bits[e.ixp];
    }
  }
}

gen_config tiny_config(std::uint64_t seed) {
  gen_config cfg;
  cfg.seed = seed;
  cfg.n_cities = 40;
  cfg.n_ixps = 8;
  cfg.n_ases = 260;
  cfg.n_resellers = 4;
  cfg.largest_ixp_members = 90;
  cfg.smallest_ixp_members = 12;
  cfg.remote_collector_count = 3;
  cfg.collector_min_ixps = 3;
  cfg.collector_max_ixps = 5;
  return cfg;
}

}  // namespace opwat::world
