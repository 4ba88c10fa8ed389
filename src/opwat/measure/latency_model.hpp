// Ground-truth latency synthesis.
//
// Every RTT the measurement engines report is derived from the geodesic
// distance between the two attachment points, an effective per-path speed
// drawn deterministically inside the paper's Fig. 6 envelope
// [v_min(d), v_max], a small equipment overhead, and additive positive
// jitter per sample.  Because real paths obey the same envelope, Step 3's
// feasible-ring test faces exactly the geometry it faces in the wild:
// min-RTTs never imply speeds above 4/9 c, and long-haul paths are never
// slower than the empirical minimum speed.
#pragma once

#include <cstdint>
#include <optional>

#include "opwat/geo/geodesic.hpp"
#include "opwat/geo/speed_model.hpp"
#include "opwat/util/rng.hpp"
#include "opwat/world/world.hpp"

namespace opwat::measure {

/// A point attached to the network: coordinates plus (when applicable) the
/// facility housing the equipment, so same-facility paths can be modelled
/// as switch-local.
struct net_point {
  geo::geo_point location;
  std::optional<world::facility_id> facility;
};

class latency_model {
 public:
  explicit latency_model(std::uint64_t seed, geo::speed_fit fit = {}) noexcept
      : seed_(seed), fit_(fit) {}

  /// Deterministic minimum (uncongested) RTT between two points in ms.
  /// `path_tag` disambiguates parallel paths between the same endpoints.
  [[nodiscard]] double base_rtt_ms(const net_point& a, const net_point& b,
                                   std::uint64_t path_tag = 0) const noexcept;

  /// One measurement sample: base RTT plus positive jitter and rare spikes.
  [[nodiscard]] double sample_rtt_ms(const net_point& a, const net_point& b,
                                     util::rng& r, std::uint64_t path_tag = 0) const noexcept;

  /// One sample over a precomputed `base_rtt_ms`: draws only the jitter,
  /// exactly as the point overload does, so a series can compute its base
  /// once.
  [[nodiscard]] static double sample_rtt_ms(double base, util::rng& r) noexcept;

  /// Attachment point of a router in the world.
  [[nodiscard]] static net_point point_of_router(const world::world& w,
                                                 world::router_id rid);

  /// Attachment point of a facility.
  [[nodiscard]] static net_point point_of_facility(const world::world& w,
                                                   world::facility_id fid);

  [[nodiscard]] const geo::speed_fit& fit() const noexcept { return fit_; }

 private:
  std::uint64_t seed_;
  geo::speed_fit fit_;
};

}  // namespace opwat::measure
