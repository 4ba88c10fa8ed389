#include "opwat/measure/latency_model.hpp"

#include <cmath>

#include "opwat/util/rng.hpp"

namespace opwat::measure {

namespace {
std::uint64_t point_tag(const net_point& p) noexcept {
  const auto lat = static_cast<std::int64_t>(p.location.lat_deg * 1e6);
  const auto lon = static_cast<std::int64_t>(p.location.lon_deg * 1e6);
  return util::hash_combine(static_cast<std::uint64_t>(lat),
                            static_cast<std::uint64_t>(lon));
}
}  // namespace

double latency_model::base_rtt_ms(const net_point& a, const net_point& b,
                                  std::uint64_t path_tag) const noexcept {
  // Stable per-pair randomness: same endpoints always see the same path.
  const std::uint64_t pair_tag =
      util::hash_combine(util::pair_hash_unordered(point_tag(a), point_tag(b)),
                         util::hash_combine(seed_, path_tag));
  util::rng pr{pair_tag};

  if (a.facility && b.facility && *a.facility == *b.facility)
    return pr.uniform(0.12, 0.45);  // same switch room

  const double d = geo::geodesic_km(a.location, b.location);
  if (d < 1.0) return pr.uniform(0.15, 0.7);

  // Effective speed inside the Fig. 6 envelope, with safety margins so
  // the fixed equipment overhead (which lowers the effective end-to-end
  // speed) cannot push the minimum RTT outside the feasible band.
  const double v_hi = 0.92 * geo::kVMaxKmPerMs;
  const double v_lo_raw = geo::v_min_km_per_ms(d, fit_);
  const double v_lo = std::min(v_hi * 0.98, std::max(1.15 * v_lo_raw, 55.0));
  // Skew towards the fast end: long-haul paths are usually close to great
  // circle fibre, metro paths are messier.
  const double u = std::pow(pr.uniform01(), 2.0);
  const double v = v_hi - (v_hi - v_lo) * u;
  const double overhead_ms = pr.uniform(0.08, 0.3);
  return d / v + overhead_ms;
}

double latency_model::sample_rtt_ms(const net_point& a, const net_point& b,
                                    util::rng& r, std::uint64_t path_tag) const noexcept {
  return sample_rtt_ms(base_rtt_ms(a, b, path_tag), r);
}

double latency_model::sample_rtt_ms(double base, util::rng& r) noexcept {
  double rtt = base + r.exponential(0.12);
  if (r.bernoulli(0.01)) rtt += r.uniform(4.0, 60.0);  // transient congestion
  return rtt;
}

net_point latency_model::point_of_router(const world::world& w, world::router_id rid) {
  const auto& rt = w.routers.at(rid);
  net_point p;
  p.location = w.router_location(rt);
  p.facility = rt.facility;
  return p;
}

net_point latency_model::point_of_facility(const world::world& w,
                                           world::facility_id fid) {
  const auto& f = w.facilities.at(fid);
  return {f.location, f.id};
}

}  // namespace opwat::measure
