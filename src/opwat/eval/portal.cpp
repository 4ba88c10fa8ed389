#include "opwat/eval/portal.hpp"

#include <cmath>

#include "opwat/util/json.hpp"

namespace opwat::eval {

std::string portal_snapshot_json(const serve::catalog& cat, std::string_view epoch_label,
                                 const portal_options& opt) {
  const auto& ep = cat.of(epoch_label);
  using infer::peering_class;

  util::json_writer w;
  w.begin_object();
  w.key("snapshot").value(ep.label());
  w.key("generator").value("opwat");
  w.key("ixps_studied").value(static_cast<std::uint64_t>(ep.blocks().size()));

  w.key("totals").begin_object();
  w.key("local").value(static_cast<std::uint64_t>(ep.total(peering_class::local)));
  w.key("remote").value(static_cast<std::uint64_t>(ep.total(peering_class::remote)));
  w.key("unknown").value(static_cast<std::uint64_t>(ep.total(peering_class::unknown)));
  w.end_object();

  w.key("ixps").begin_array();
  for (const auto& b : ep.blocks()) {
    const auto& ixp = cat.ixps()[b.ixp];
    w.begin_object();
    w.key("name").value(ixp.name);
    w.key("peering_lan").value(ixp.peering_lan);
    w.key("min_physical_capacity_gbps").value(ixp.min_physical_capacity_gbps);
    w.key("local").value(
        static_cast<std::uint64_t>(b.by_class[static_cast<std::size_t>(peering_class::local)]));
    w.key("remote").value(static_cast<std::uint64_t>(
        b.by_class[static_cast<std::size_t>(peering_class::remote)]));

    if (opt.include_facilities) {
      w.key("facilities").begin_array();
      for (const auto& f : b.facilities) {
        w.begin_object();
        w.key("id").value(static_cast<std::uint64_t>(f.id));
        if (f.has_name) w.key("name").value(f.name);
        if (f.has_location) {
          w.key("lat").value(f.lat_deg);
          w.key("lon").value(f.lon_deg);
        }
        w.end_object();
      }
      w.end_array();
    }

    if (opt.include_interfaces) {
      w.key("members").begin_array();
      for (std::size_t i = b.begin; i < b.end; ++i) {
        const auto cls = static_cast<peering_class>(ep.cls_col()[i]);
        w.begin_object();
        w.key("interface").value(net::ipv4_addr{ep.ip_col()[i]}.to_string());
        w.key("asn").value(static_cast<std::uint64_t>(ep.asn_col()[i]));
        w.key("class").value(std::string{to_string(cls)});
        if (cls != peering_class::unknown)
          w.key("evidence").value(std::string{
              to_string(static_cast<infer::method_step>(ep.step_col()[i]))});
        // Measurement evidence is exported even for undecided members.
        const double rtt = ep.rtt_col()[i];
        if (!std::isnan(rtt)) w.key("rtt_min_ms").value(rtt);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace opwat::eval
