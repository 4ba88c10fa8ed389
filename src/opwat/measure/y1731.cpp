#include "opwat/measure/y1731.hpp"

#include "opwat/geo/geodesic.hpp"
#include "opwat/util/stats.hpp"

namespace opwat::measure {

std::vector<facility_pair_delay> facility_delay_matrix(const world::world& w,
                                                       const latency_model& lat,
                                                       world::ixp_id ixp,
                                                       int samples_per_pair,
                                                       util::rng rng) {
  std::vector<facility_pair_delay> out;
  const auto& facs = w.ixps.at(ixp).facilities;
  for (std::size_t i = 0; i < facs.size(); ++i) {
    for (std::size_t j = i + 1; j < facs.size(); ++j) {
      const auto pa = latency_model::point_of_facility(w, facs[i]);
      const auto pb = latency_model::point_of_facility(w, facs[j]);
      const double base = lat.base_rtt_ms(pa, pb);
      std::vector<double> samples;
      samples.reserve(static_cast<std::size_t>(samples_per_pair));
      for (int s = 0; s < samples_per_pair; ++s)
        samples.push_back(latency_model::sample_rtt_ms(base, rng));
      facility_pair_delay d;
      d.a = facs[i];
      d.b = facs[j];
      d.distance_km = geo::geodesic_km(pa.location, pb.location);
      d.median_rtt_ms = util::median(samples);
      out.push_back(d);
    }
  }
  return out;
}

}  // namespace opwat::measure
