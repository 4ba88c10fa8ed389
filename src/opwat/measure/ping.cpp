#include "opwat/measure/ping.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace opwat::measure {

namespace {

/// Stable per-interface response behaviour: the same interface either
/// answers pings or does not, independent of which VP asks — modulated by
/// the VP type's reachability (Atlas probes sit outside the LAN and fail
/// more often).
bool target_responds(const vantage_point& vp, net::ipv4_addr ip,
                     const ping_config& cfg, std::uint64_t seed) {
  const double rate = vp.type == vp_type::looking_glass ? cfg.iface_response_rate_lg
                                                        : cfg.iface_response_rate_atlas;
  util::rng r{util::hash_combine(util::hash_combine(seed, ip.value()),
                                 vp.type == vp_type::looking_glass ? 1 : 2)};
  return r.bernoulli(rate);
}

}  // namespace

ping_campaign run_ping_campaign(const world::world& w, const latency_model& lat,
                                std::span<const vantage_point> vps,
                                std::span<const ping_target> targets,
                                const ping_config& cfg, util::rng rng) {
  ping_campaign out;
  out.route_server_rtt_ms.assign(vps.size(), std::numeric_limits<double>::infinity());

  // A VP only pings its own IXP's members, so VPs whose IXP has no
  // target have nothing to measure — skipping them keeps a scope-sharded
  // campaign (the engine's parallel executor) from re-sampling every
  // VP's route-server RTT once per shard.
  std::set<world::ixp_id> target_ixps;
  for (const auto& tgt : targets) target_ixps.insert(tgt.ixp);

  for (std::size_t vi = 0; vi < vps.size(); ++vi) {
    const auto& vp = vps[vi];
    if (!vp.alive || !target_ixps.contains(vp.ixp)) continue;
    auto vr = rng.fork(vi);

    // Route-server RTT (used by the management-LAN filter).
    const auto& x = w.ixps.at(vp.ixp);
    if (!x.facilities.empty()) {
      const auto rs_point = latency_model::point_of_facility(w, x.facilities.front());
      const double rs_base = lat.base_rtt_ms(vp.point(), rs_point);
      double rs_min = std::numeric_limits<double>::infinity();
      for (int k = 0; k < 4; ++k)
        rs_min = std::min(rs_min,
                          latency_model::sample_rtt_ms(rs_base, vr) + vp.mgmt_extra_ms);
      if (vp.in_peering_lan) rs_min = std::min(rs_min, 0.3);  // same L2 segment
      out.route_server_rtt_ms[vi] = vp.rounds_rtt_up ? std::ceil(rs_min) : rs_min;
    }

    for (const auto& tgt : targets) {
      if (tgt.ixp != vp.ixp) continue;
      ping_measurement pm;
      pm.vp_index = vi;
      pm.target = tgt.ip;
      pm.ixp = tgt.ixp;
      pm.samples_total = cfg.rounds;

      const auto mid = w.membership_by_interface(tgt.ip);
      if (!mid || !target_responds(vp, tgt.ip, cfg, rng.seed())) {
        out.measurements.push_back(pm);
        continue;
      }
      const auto& m = w.memberships[*mid];
      const double base =
          lat.base_rtt_ms(vp.point(), latency_model::point_of_router(w, m.router));

      auto tr = vr.fork(tgt.ip.value());
      // TTL-switch filter: inconsistent initial TTLs discard the series.
      if (cfg.apply_ttl_filters && tr.bernoulli(cfg.ttl_switch_rate)) {
        out.measurements.push_back(pm);
        continue;
      }
      double best = std::numeric_limits<double>::infinity();
      int kept = 0;
      for (int round = 0; round < cfg.rounds; ++round) {
        // TTL-match filter: off-subnet replies are dropped.
        if (cfg.apply_ttl_filters && tr.bernoulli(cfg.offsubnet_reply_rate)) continue;
        const double rtt = latency_model::sample_rtt_ms(base, tr) + vp.mgmt_extra_ms;
        best = std::min(best, rtt);
        ++kept;
      }
      if (kept > 0) {
        pm.responsive = true;
        pm.samples_kept = kept;
        pm.rtt_min_ms = vp.rounds_rtt_up ? std::max(1.0, std::ceil(best)) : best;
      }
      out.measurements.push_back(pm);
    }
  }
  return out;
}

}  // namespace opwat::measure
